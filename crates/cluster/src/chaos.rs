//! Run production physics *through* hardware failures (§2.1).
//!
//! The paper's operating argument is that a 294-node commodity cluster
//! is productive not because nothing breaks — Table 1 budgets for DIMMs,
//! fans, power supplies and switch ports dying — but because the system
//! *recovers*: soft errors are retried by the transport, dead nodes are
//! rebooted, and the job restarts from its last checkpoint. This module
//! closes that loop on the simulated machine: a distributed treecode
//! stepping loop runs under an injected [`FaultPlan`], commits periodic
//! [`ckpt`] snapshots to stable storage (charged at the Figure 7 local-
//! disk I/O rate), and when the world dies the harness restores the last
//! commit and re-runs — accounting every virtual second lost to the
//! crash and every one spent rebooting and re-reading the checkpoint.
//!
//! Every rank holds the full body set — a replica — but *owns* one stripe
//! of the acceleration array. The force phase is the same function of
//! the same bits on every replica, so the host evaluates it once per
//! step ([`hot::integrate::Forces::replicated`]) and the replicas share
//! the result, each charging its 1/size share to its own virtual clock;
//! each replica steps through [`hot::integrate::step`], and what runs per
//! rank is everything that makes the replicas replicas: the stripes are
//! allgathered and every replica overwrites its own accelerations with
//! the *received* ones, then kicks its own bodies with them. Delivery
//! integrity is therefore load-bearing — a dropped, duplicated or
//! corrupted stripe that the reliable transport failed to repair
//! diverges that replica, its next force phase no longer matches the
//! others' bit for bit, it is evaluated on its own, and the answer
//! changes. "Same physics as the fault-free run" really
//! does certify the recovery machinery.

use crate::io::IoModel;
use ckpt::CkptError;
use hot::gravity::{Accel, GravityConfig};
use hot::integrate::{self, Forces};
use hot::tree::Body;
use msg::{Comm, FaultPlan, Machine, World, WorldOutcome, WorldRun};
use query::stripe;
use std::ops::Range;
use std::sync::Mutex;
use store::{GenerationLog, RecordKind, StoreConfig};

/// Aux lanes a degraded-mode shard carries alongside each body: the
/// acceleration vector plus the potential — the full integrator state a
/// failed-over rank needs to resume mid-KDK.
const N_AUX: usize = 4;

/// Accelerations as `[acc, pot]` rows: what a stripe carries on the wire,
/// and flattened, the store's row-major aux lanes.
pub(crate) fn rows_of(accel: &[Accel]) -> Vec<[f64; N_AUX]> {
    let row = |a: &Accel| [a.acc[0], a.acc[1], a.acc[2], a.pot];
    accel.iter().map(row).collect()
}

/// Rebuild `Accel` values from [`rows_of`]'s rows.
fn accel_of(rows: &[[f64; N_AUX]]) -> Vec<Accel> {
    let accel = |&[x, y, z, pot]: &[f64; N_AUX]| Accel {
        acc: [x, y, z],
        pot,
    };
    rows.iter().map(accel).collect()
}

/// Adopt the stripe rank `from` sent as the accelerations `accel[range]`:
/// what a replica kicks with is what the wire delivered.
pub(crate) fn adopt_stripe(
    accel: &mut [Accel],
    range: Range<usize>,
    part: &[[f64; N_AUX]],
    from: usize,
) {
    assert_eq!(part.len(), range.len(), "stripe {from} truncated");
    accel[range].copy_from_slice(&accel_of(part));
}

/// Give up after this many *consecutive* recoveries that resumed from
/// the same commit (zero forward progress). An attacker scheduling
/// crashes faster than the checkpoint cadence would otherwise burn all
/// of `max_attempts` replaying the identical doomed interval.
const MAX_FUTILE_ATTEMPTS: usize = 3;

/// Knobs of the checkpoint/restart loop (times are virtual seconds).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Steps between checkpoint commits.
    pub checkpoint_every: u64,
    /// Reboot + relaunch dead time charged on every restart, on top of
    /// re-reading the checkpoint. A node power-cycle plus job relaunch
    /// on the real machine is minutes; the default keeps test runs short
    /// while staying much larger than a step time.
    pub restart_penalty_s: f64,
    /// Failover dead time for a degraded-mode recovery: reassign the
    /// condemned rank to a spare node and restore *its* shard while the
    /// survivors hold at the last commit. Much smaller than a
    /// whole-world restart — that asymmetry is the point of sharding.
    pub failover_penalty_s: f64,
    /// Give up after this many attempts (a plan can be lethal, e.g. a
    /// crash scheduled before the first commit plus a zero horizon).
    pub max_attempts: usize,
    /// Arm the time-resolved telemetry plane (`obs::timeline`) with this
    /// window width on every observed rank. `None` (the default) records
    /// end-of-run aggregates only.
    pub timeline_window_s: Option<f64>,
    /// Test hook modeling at-rest bit rot: after the shard generation at
    /// this step is committed, one byte of this `(rank, step)`'s shard
    /// flips on "disk", to be discovered by the next recovery's decode.
    #[cfg(test)]
    pub corrupt_shard: Option<(usize, u64)>,
    /// Test hook modeling a corruption the transport failed to repair:
    /// `(rank, done)` flips one bit of the stripe replica `rank` received
    /// from its right-hand neighbour, in the exchange of the step it
    /// began with `done` steps complete.
    #[cfg(test)]
    pub corrupt_stripe: Option<(usize, u64)>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            checkpoint_every: 4,
            restart_penalty_s: 5.0,
            failover_penalty_s: 0.5,
            max_attempts: 8,
            timeline_window_s: None,
            #[cfg(test)]
            corrupt_shard: None,
            #[cfg(test)]
            corrupt_stripe: None,
        }
    }
}

/// What the run-through-failures harness measured.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// World launches (1 = no restart was needed).
    pub attempts: usize,
    /// Restarts after a crash (`attempts - 1` when the run completed).
    pub restarts: usize,
    /// Whether the job finished within `max_attempts`.
    pub completed: bool,
    /// Absolute virtual time at job completion (includes all lost work
    /// and restart overhead).
    pub final_vtime: f64,
    /// Virtual seconds of computed-but-uncommitted work destroyed by
    /// crashes (crash time minus last commit, summed over restarts).
    pub lost_vtime: f64,
    /// Virtual seconds spent rebooting and restoring checkpoints.
    pub restart_overhead_s: f64,
    /// `1 - (lost + overhead) / final_vtime`: the fraction of the
    /// cluster-time the job paid for that produced kept physics.
    pub availability: f64,
    /// Checkpoint commits that reached stable storage.
    pub commits: u64,
    /// Size of one checkpoint on disk (degraded mode: sum of all shards
    /// in the newest complete generation).
    pub checkpoint_bytes: usize,
    /// Degraded-mode recoveries: a condemned rank restored from its own
    /// shard while the survivors rolled back in place (no world restart).
    pub shard_recoveries: u64,
    /// Virtual seconds spent failing over condemned ranks from shards.
    pub shard_recovery_overhead_s: f64,
    /// Size of one rank's shard in the newest complete generation.
    pub shard_bytes: usize,
    /// Recoveries that found a rotten shard in the newest generation and
    /// fell back to the previous complete commit instead of crashing.
    pub shard_fallbacks: u64,
    /// Store-record bytes actually shipped at commit time across promoted
    /// generations (first commit per attempt is full, the rest are
    /// dirty-cell deltas).
    pub store_commit_bytes: u64,
    /// What the same promoted generations cost as full columnar records
    /// — the incremental-commit savings are `full - commit`.
    pub store_full_bytes: u64,
    /// Why the harness gave up (`None` while healthy or completed).
    pub diagnosis: Option<String>,
    /// Injected-fault and recovery traffic, summed over ranks of the
    /// final (successful) attempt.
    pub drops: u64,
    pub corruptions: u64,
    pub duplicates: u64,
    pub reorders: u64,
    pub retransmits: u64,
    pub acks: u64,
}

/// Integrator state at a step boundary, as committed to stable storage.
#[derive(Clone)]
struct State {
    step: u64,
    time: f64,
    bodies: Vec<Body>,
    accel: Vec<Accel>,
}

/// The whole-world commit: a [`ckpt::frame`] around step, time (raw
/// bits), the body count and [`Body::write_row`] rows, then the accel
/// count and `acc, pot` rows — every word little-endian.
fn encode_state(step: u64, time: f64, bodies: &[Body], accel: &[Accel]) -> Vec<u8> {
    ckpt::frame(|out| {
        out.reserve(32 + bodies.len() * (Body::ROW_BYTES + 8 * N_AUX));
        out.extend_from_slice(&step.to_le_bytes());
        out.extend_from_slice(&time.to_bits().to_le_bytes());
        out.extend_from_slice(&(bodies.len() as u64).to_le_bytes());
        for b in bodies {
            b.write_row(out);
        }
        out.extend_from_slice(&(accel.len() as u64).to_le_bytes());
        for v in accel.iter().flat_map(|a| a.acc.iter().chain([&a.pot])) {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    })
}

/// The `u64` count at `p[at..]` and the `count × width` bytes after it,
/// checked against the bytes actually present before anything is sized
/// from the count.
fn counted_rows(p: &[u8], at: usize, width: usize) -> Result<(u64, &[u8]), CkptError> {
    let count = p.get(at..at + 8).ok_or(CkptError::Truncated)?;
    let count = u64::from_le_bytes(count.try_into().expect("8 bytes"));
    let rows = usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(width))
        .and_then(|len| p[at + 8..].get(..len))
        .ok_or(CkptError::Truncated)?;
    Ok((count, rows))
}

/// Decode [`encode_state`]'s frame into the state every rank clones.
fn decode_state(bytes: &[u8]) -> Result<State, CkptError> {
    let p = ckpt::unframe(bytes)?;
    let word = |at: usize| u64::from_le_bytes(p[at..at + 8].try_into().expect("8 bytes"));
    let (n, rows) = counted_rows(p, 16, Body::ROW_BYTES)?;
    let accel_at = 24 + rows.len();
    let (n_accel, accel) = counted_rows(p, accel_at, 8 * N_AUX)?;
    if n_accel != n {
        return Err(CkptError::BadEncoding("accel/bodies length mismatch"));
    }
    let end = accel_at + 8 + accel.len();
    if end < p.len() {
        return Err(CkptError::TrailingBytes(p.len() - end));
    }
    let lanes: Vec<f64> = (accel_at + 8..end)
        .step_by(8)
        .map(|at| f64::from_bits(word(at)))
        .collect();
    Ok(State {
        step: word(0),
        time: f64::from_bits(word(8)),
        bodies: rows
            .chunks_exact(Body::ROW_BYTES)
            .map(|row| Body::read_row(row.try_into().expect("chunks_exact")))
            .collect(),
        accel: accel_of(lanes.as_chunks().0),
    })
}

/// One complete per-rank shard generation in stable storage: `of_ranks`
/// crc-framed fragments that together hold the integrator state at
/// `step`. Two generations are retained so a shard discovered rotten at
/// recovery time falls back to the previous complete commit.
/// One rank's shard as logged from inside the faulted world:
/// `(step, commit vtime, rank, crc-framed bytes)`.
type ShardCommit = (u64, f64, usize, Vec<u8>);

/// A possibly-incomplete generation being reassembled from the log:
/// one `(commit vtime, bytes)` slot per rank.
type ShardSlots = Vec<Option<(f64, Vec<u8>)>>;

struct Gen {
    step: u64,
    /// Virtual commit time (max over ranks; the commit barrier keeps the
    /// spread to one barrier's skew).
    vtime: f64,
    shards: Vec<Vec<u8>>,
}

/// Cut a full replica state into per-rank shard files: each shard frames
/// a full columnar store record of that rank's stripe (bodies plus the
/// [`N_AUX`] acceleration lanes) behind a [`ckpt::ShardHeader`].
fn encode_shards(
    step: u64,
    time: f64,
    bodies: &[Body],
    accel: &[Accel],
    size: usize,
) -> Vec<Vec<u8>> {
    (0..size)
        .map(|r| {
            let range = stripe(bodies.len(), size, r);
            let mut log = GenerationLog::new(StoreConfig::default(), N_AUX as u32);
            let record = log
                .commit(
                    step,
                    &bodies[range.clone()],
                    rows_of(&accel[range]).as_flattened(),
                )
                .to_vec();
            ckpt::save_shard(
                &ckpt::ShardHeader {
                    rank: r as u32,
                    of_ranks: size as u32,
                    step,
                    time,
                },
                &record,
            )
        })
        .collect()
}

/// Decode and reassemble a generation's shards into a full replica state.
/// `None` if any fragment is rotten or the set is not one coherent
/// generation (mixed steps, worlds or commit times) — the caller falls
/// back to an older generation. Promoted shards always hold full store
/// records, so each materializes from its own bytes alone.
fn assemble(gen: &Gen, size: usize) -> Option<State> {
    let mut decoded = Vec::with_capacity(size);
    for bytes in &gen.shards {
        decoded.push(ckpt::load_shard(bytes).ok()?);
    }
    let headers: Vec<ckpt::ShardHeader> = decoded.iter().map(|(h, _)| *h).collect();
    ckpt::validate_shard_headers(&headers, size).ok()?;
    if headers[0].step != gen.step {
        return None;
    }
    let mut bodies = Vec::new();
    let mut accel = Vec::new();
    for (r, (h, record)) in decoded.into_iter().enumerate() {
        if h.rank != r as u32 {
            return None;
        }
        let snap = store::log::materialize_records(&[(h.step, record)], h.step).ok()?;
        let (b, aux) = snap.decode_all().ok()?;
        if aux.len() != b.len() * N_AUX {
            return None;
        }
        bodies.extend(b);
        accel.extend(accel_of(aux.as_chunks().0));
    }
    Some(State {
        step: gen.step,
        time: headers[0].time,
        bodies,
        accel,
    })
}

/// Run an `nranks`-way treecode for `steps` KDK steps of `dt` under the
/// given fault plan, checkpointing and restarting as needed. Returns the
/// final bodies and the recovery ledger.
#[allow(clippy::too_many_arguments)]
pub fn run_treecode(
    machine: &Machine,
    nranks: usize,
    plan: &FaultPlan,
    chaos: &ChaosConfig,
    bodies: Vec<Body>,
    cfg: &GravityConfig,
    steps: u64,
    dt: f64,
) -> (Vec<Body>, ChaosReport) {
    let (bodies, report, _) =
        run_treecode_impl(machine, nranks, plan, chaos, bodies, cfg, steps, dt, false);
    (bodies, report)
}

/// [`run_treecode`] with the observability layer switched on: every rank
/// records spans (`chaos.restore` / `chaos.force` / `chaos.exchange` /
/// `chaos.checkpoint`) and transport metrics, and the merged world trace
/// of the final attempt is returned alongside the report.
///
/// Crashed attempts yield no trace — their worlds die mid-flight, so the
/// victims' span stacks never unwind and the drain order races wall
/// clock. Only the completing attempt's trace is deterministic, and that
/// is the one returned. `None` means the job never completed.
#[allow(clippy::too_many_arguments)]
pub fn run_treecode_traced(
    machine: &Machine,
    nranks: usize,
    plan: &FaultPlan,
    chaos: &ChaosConfig,
    bodies: Vec<Body>,
    cfg: &GravityConfig,
    steps: u64,
    dt: f64,
) -> (Vec<Body>, ChaosReport, Option<obs::WorldTrace>) {
    run_treecode_impl(machine, nranks, plan, chaos, bodies, cfg, steps, dt, true)
}

#[allow(clippy::too_many_arguments)]
fn run_treecode_impl(
    machine: &Machine,
    nranks: usize,
    plan: &FaultPlan,
    chaos: &ChaosConfig,
    bodies: Vec<Body>,
    cfg: &GravityConfig,
    steps: u64,
    dt: f64,
    traced: bool,
) -> (Vec<Body>, ChaosReport, Option<obs::WorldTrace>) {
    assert!(nranks >= 1 && steps >= 1 && dt > 0.0);
    let io = IoModel::space_simulator(nranks as u32);
    // A plan with the failure detector armed runs in *degraded* mode:
    // crashes are silent (survivors must reach a quorum verdict naming
    // the dead rank), commits are per-rank shards, and recovery fails
    // over the one condemned rank instead of restarting the world.
    let degraded = plan.heartbeat.is_some();
    // Initial forces, then the step-0 "checkpoint" is the ICs themselves.
    let Forces { tree, accel, .. } = Forces::of(bodies, cfg);
    let bodies = tree.bodies;
    let mut committed = (0u64, 0.0f64, encode_state(0, 0.0, &bodies, &accel));
    // Degraded-mode stable storage: complete shard generations, newest
    // last; two are retained so a rotten shard falls back one commit.
    let mut gens: Vec<Gen> = if degraded {
        vec![Gen {
            step: 0,
            vtime: 0.0,
            shards: encode_shards(0, 0.0, &bodies, &accel, nranks),
        }]
    } else {
        Vec::new()
    };

    let mut report = ChaosReport {
        checkpoint_bytes: committed.2.len(),
        shard_bytes: gens
            .last()
            .map_or(0, |g| g.shards.iter().map(Vec::len).max().unwrap_or(0)),
        ..Default::default()
    };
    let mut clock0 = 0.0;
    let mut futile = 0usize;

    while report.attempts < chaos.max_attempts {
        report.attempts += 1;
        // Choose the state to (re)launch from, decoded once for every
        // rank. Degraded mode reassembles the newest shard generation
        // whose every fragment decodes cleanly, discarding rotten
        // generations (and accounting the extra rolled-back interval as
        // lost work).
        let start: State = if degraded {
            let mut picked = None;
            while let Some(gen) = gens.last() {
                picked = assemble(gen, nranks);
                if picked.is_some() {
                    break;
                }
                let rotten = gens.pop().expect("non-empty");
                report.shard_fallbacks += 1;
                let prev_vtime = gens.last().map_or(0.0, |g| g.vtime);
                report.lost_vtime += (rotten.vtime - prev_vtime).max(0.0);
            }
            match picked {
                Some(st) => st,
                None => {
                    report.diagnosis =
                        Some("every retained checkpoint generation is corrupt".to_string());
                    break;
                }
            }
        } else {
            decode_state(&committed.2).expect("stable storage is uncorrupted")
        };
        let progress_floor = if degraded {
            gens.last().map_or(0, |g| g.step)
        } else {
            committed.0
        };
        // Stable storage for commits made during this attempt: written
        // outside the faulted world, so a later crash cannot claw a
        // commit back. Whole-world mode stores rank 0's full snapshot;
        // degraded mode logs every rank's shard.
        let store: Mutex<Option<(u64, f64, Vec<u8>)>> = Mutex::new(None);
        let shard_log: Mutex<Vec<ShardCommit>> = Mutex::new(Vec::new());
        let start = &start;
        let shard_log_ref = &shard_log;
        let world = |comm: &mut Comm| {
            if let Some(w) = chaos.timeline_window_s {
                comm.enable_timeline(w);
            }
            comm.span_enter("chaos.restore");
            let State {
                mut step,
                mut time,
                mut bodies,
                mut accel,
            } = start.clone();
            comm.span_exit("chaos.restore");
            let n = bodies.len();
            let size = comm.size();
            // Per-attempt incremental commit log: the first commit of an
            // attempt ships a full columnar snapshot of this rank's
            // stripe, later commits ship dirty-cell deltas against the
            // rank's own previous commit. The chain is self-consistent
            // within the attempt; promotion (outside the world)
            // materializes it back into full records.
            let mut log = GenerationLog::new(StoreConfig::default(), N_AUX as u32);
            while step < steps {
                bodies = integrate::step(bodies, &mut accel, dt, |drifted, accel| {
                    comm.span_enter("chaos.force");
                    let forces = Forces::replicated(comm, "chaos.force", drifted, cfg);
                    comm.span_exit("chaos.force");
                    // Exchange acceleration stripes and adopt the
                    // *received* values, so transport integrity decides
                    // the physics.
                    comm.span_enter("chaos.exchange");
                    let mine = rows_of(&forces.accel[stripe(n, size, comm.rank())]);
                    #[allow(unused_mut)]
                    let mut stripes = comm.allgather(mine);
                    #[cfg(test)]
                    if chaos.corrupt_stripe == Some((comm.rank(), step)) {
                        let v = &mut stripes[(comm.rank() + 1) % size][0][0];
                        *v = f64::from_bits(v.to_bits() ^ (1 << 50));
                    }
                    for (r, part) in stripes.iter().enumerate() {
                        adopt_stripe(accel, stripe(n, size, r), part, r);
                    }
                    comm.span_exit("chaos.exchange");
                    forces.tree.bodies.clone()
                });
                step += 1;
                time += dt;
                if step % chaos.checkpoint_every == 0 || step == steps {
                    // Every rank writes its share of the snapshot to
                    // local disk (Figure 7's parallel I/O path), then the
                    // barrier makes the commit atomic-at-a-step.
                    comm.span_enter("chaos.checkpoint");
                    if degraded {
                        // Per-rank shard commit: each rank frames only
                        // its own stripe, so a later recovery re-reads
                        // one shard instead of the whole world.
                        let range = stripe(n, size, comm.rank());
                        let record = log
                            .commit(
                                step,
                                &bodies[range.clone()],
                                rows_of(&accel[range]).as_flattened(),
                            )
                            .to_vec();
                        if matches!(store::record_kind(&record), Ok(RecordKind::Delta { .. })) {
                            comm.obs_count("store.delta_commits", 1);
                        } else {
                            comm.obs_count("store.full_commits", 1);
                        }
                        comm.obs_count("store.commit_bytes", record.len() as u64);
                        let shard = ckpt::save_shard(
                            &ckpt::ShardHeader {
                                rank: comm.rank() as u32,
                                of_ranks: size as u32,
                                step,
                                time,
                            },
                            &record,
                        );
                        comm.obs_count("ckpt.bytes", shard.len() as u64);
                        comm.obs_count("ckpt.commits", 1);
                        comm.elapse(io.snapshot_time(shard.len() as f64));
                        comm.barrier();
                        shard_log_ref
                            .lock()
                            .unwrap()
                            .push((step, comm.time(), comm.rank(), shard));
                    } else {
                        let bytes = encode_state(step, time, &bodies, &accel);
                        comm.obs_count("ckpt.bytes", bytes.len() as u64);
                        comm.obs_count("ckpt.commits", 1);
                        comm.elapse(io.snapshot_time(bytes.len() as f64 / size as f64));
                        comm.barrier();
                        if comm.rank() == 0 {
                            *store.lock().unwrap() = Some((step, comm.time(), bytes));
                        }
                    }
                    comm.span_exit("chaos.checkpoint");
                }
            }
            let final_bodies = if comm.rank() == 0 { bodies } else { Vec::new() };
            (final_bodies, comm.time(), comm.stats())
        };
        let WorldRun { outcome, trace, .. } = World::new(machine.clone(), nranks)
            .faults(plan)
            .clock0(clock0)
            .observe(traced)
            .run(world);
        // Commits outlive the attempt that made them.
        if let Some((step, vtime, bytes)) = store.into_inner().unwrap() {
            if step > committed.0 {
                report.commits += 1;
                report.checkpoint_bytes = bytes.len();
                committed = (step, vtime, bytes);
            }
        }
        // Promote complete shard generations: a step commits only once
        // every rank's shard for it reached stable storage (a crash
        // between the barrier and some rank's write leaves a torn,
        // unpromotable generation — exactly a torn parallel commit).
        // Logged shards carry incremental store records; promotion
        // cross-validates the full header set (one world, one step, one
        // commit time), materializes every rank's delta chain and
        // retains standalone *full* records, so the two-generation
        // fallback window never depends on an older attempt's bytes.
        {
            let mut by_step: std::collections::BTreeMap<u64, ShardSlots> =
                std::collections::BTreeMap::new();
            let mut chains: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); nranks];
            let mut hdrs: std::collections::BTreeMap<(u64, usize), ckpt::ShardHeader> =
                std::collections::BTreeMap::new();
            for (step, vtime, rank, bytes) in shard_log.into_inner().unwrap() {
                if let Ok((h, record)) = ckpt::load_shard(&bytes) {
                    hdrs.insert((step, rank), h);
                    chains[rank].push((step, record));
                }
                by_step.entry(step).or_insert_with(|| vec![None; nranks])[rank] =
                    Some((vtime, bytes));
            }
            for chain in &mut chains {
                chain.sort_by_key(|(s, _)| *s);
            }
            'steps: for (step, slots) in by_step {
                if step <= gens.last().map_or(0, |g| g.step) || !slots.iter().all(Option::is_some) {
                    continue;
                }
                let headers: Vec<ckpt::ShardHeader> = match (0..nranks)
                    .map(|r| hdrs.get(&(step, r)).copied())
                    .collect::<Option<Vec<_>>>()
                {
                    Some(h) => h,
                    None => continue,
                };
                if ckpt::validate_shard_headers(&headers, nranks).is_err()
                    || headers[0].step != step
                {
                    continue;
                }
                let vtime = slots
                    .iter()
                    .map(|s| s.as_ref().expect("complete").0)
                    .fold(0.0, f64::max);
                #[allow(unused_mut)]
                let mut shards: Vec<Vec<u8>> = Vec::with_capacity(nranks);
                let mut commit_bytes = 0u64;
                let mut full_bytes = 0u64;
                for (r, header) in headers.iter().enumerate() {
                    let chain: Vec<(u64, Vec<u8>)> = chains[r]
                        .iter()
                        .filter(|(s, _)| *s <= step)
                        .cloned()
                        .collect();
                    match chain.last() {
                        Some((s, record)) if *s == step => commit_bytes += record.len() as u64,
                        _ => continue 'steps,
                    }
                    let full = match store::log::materialize_records(&chain, step) {
                        Ok(snap) => snap.to_bytes(),
                        Err(_) => continue 'steps,
                    };
                    full_bytes += full.len() as u64;
                    shards.push(ckpt::save_shard(header, &full));
                }
                #[cfg(test)]
                if let Some((r, s)) = chaos.corrupt_shard {
                    if s == step {
                        let mid = shards[r].len() / 2;
                        shards[r][mid] ^= 0x40;
                    }
                }
                report.commits += 1;
                report.store_commit_bytes += commit_bytes;
                report.store_full_bytes += full_bytes;
                report.checkpoint_bytes = shards.iter().map(Vec::len).sum();
                report.shard_bytes = shards.iter().map(Vec::len).max().unwrap_or(0);
                gens.push(Gen {
                    step,
                    vtime,
                    shards,
                });
                if gens.len() > 2 {
                    gens.remove(0);
                }
            }
        }
        match outcome {
            WorldOutcome::Completed(results) => {
                report.completed = true;
                let mut final_bodies = Vec::new();
                for (bodies, t, stats) in results {
                    if !bodies.is_empty() {
                        final_bodies = bodies;
                    }
                    report.final_vtime = report.final_vtime.max(t);
                    report.drops += stats.fault.drops;
                    report.corruptions += stats.fault.corruptions;
                    report.duplicates += stats.fault.duplicates;
                    report.reorders += stats.fault.reorders;
                    report.retransmits += stats.fault.retransmits;
                    report.acks += stats.fault.acks;
                }
                report.availability = if report.final_vtime > 0.0 {
                    1.0 - (report.lost_vtime
                        + report.restart_overhead_s
                        + report.shard_recovery_overhead_s)
                        / report.final_vtime
                } else {
                    1.0
                };
                return (final_bodies, report, trace);
            }
            WorldOutcome::Crashed { rank, at } => {
                if degraded {
                    // Quorum verdict named the dead rank; only its shard
                    // is re-read and only its node pays the failover
                    // penalty. Survivors roll back in place — no world
                    // restart, so `restarts` stays untouched.
                    report.shard_recoveries += 1;
                    let base_vtime = gens.last().map_or(0.0, |g| g.vtime);
                    report.lost_vtime += (at - base_vtime).max(0.0);
                    let shard_len = gens
                        .last()
                        .map_or(0, |g| g.shards.get(rank).map_or(0, Vec::len));
                    let restore_s = chaos.failover_penalty_s + io.snapshot_time(shard_len as f64);
                    report.shard_recovery_overhead_s += restore_s;
                    clock0 = at + restore_s;
                } else {
                    report.restarts += 1;
                    // Work since the last commit is gone; reboot, re-read
                    // the checkpoint, and resume the virtual clock past
                    // all of it.
                    report.lost_vtime += (at - committed.1).max(0.0);
                    let restore_s =
                        chaos.restart_penalty_s + io.snapshot_time(committed.2.len() as f64);
                    report.restart_overhead_s += restore_s;
                    clock0 = at + restore_s;
                }
                // Livelock guard: recoveries that never advance the
                // committed frontier (crash-before-first-checkpoint in a
                // loop) get a bounded number of identical retries, then a
                // diagnosis instead of an infinite restart storm.
                let frontier = if degraded {
                    gens.last().map_or(0, |g| g.step)
                } else {
                    committed.0
                };
                futile = if frontier > progress_floor {
                    0
                } else {
                    futile + 1
                };
                if futile >= MAX_FUTILE_ATTEMPTS {
                    report.diagnosis = Some(format!(
                        "livelock: {futile} consecutive recoveries with no commit \
                         progress (rank {rank} died at t={at:.4}, frontier stuck at \
                         step {frontier})"
                    ));
                    break;
                }
            }
            WorldOutcome::Stalled { .. } => unreachable!("no schedule installed"),
        }
    }
    report.completed = false;
    report.final_vtime = clock0;
    report.availability = 0.0;
    if report.diagnosis.is_none() {
        report.diagnosis = Some(format!(
            "gave up: max_attempts ({}) exhausted without completing",
            chaos.max_attempts
        ));
    }
    (Vec::new(), report, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::MachineSpec;
    use hot::models::plummer;
    use msg::BitEq;

    fn ss_machine() -> Machine {
        Machine::space_simulator(MachineSpec::space_simulator().profile)
    }

    fn test_cfg() -> GravityConfig {
        GravityConfig {
            theta: 0.6,
            eps: 0.05,
            ..Default::default()
        }
    }

    fn max_pos_delta(a: &[Body], b: &[Body]) -> f64 {
        assert_eq!(a.len(), b.len());
        let mut worst = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id);
            for d in 0..3 {
                worst = worst.max((x.pos[d] - y.pos[d]).abs());
            }
        }
        worst
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The pinned whole-state frame's input (`ckpt`'s `tests/frame_pin.rs`
    /// lays out the same state by hand): signed zeros, a subnormal and a
    /// NaN payload among ordinary values.
    fn pinned_state() -> (Vec<Body>, Vec<Accel>) {
        (0..5u64)
            .map(|i| {
                let x = i as f64;
                let work = if i == 3 {
                    f64::from_bits(0x7FF8_0000_DEAD_BEEF)
                } else {
                    x * 0.125
                };
                let body = Body {
                    pos: [x * 0.25 - 1.0, -x * 1.5, 1.0 / (1.0 + x)],
                    vel: [0.5 * x, -0.0, f64::MIN_POSITIVE / 2.0],
                    mass: 1.0 / (x + 3.0),
                    id: 1000 + 7 * i,
                    work,
                };
                let accel = Accel {
                    acc: [x, -2.0 * x, 0.5],
                    pot: -1.0 / (x + 1.0),
                };
                (body, accel)
            })
            .unzip()
    }

    /// Recorded at the parent of PR 25, when this frame was written by
    /// `Pack`; never re-record.
    #[test]
    fn whole_state_frame_bytes_are_pinned() {
        let (bodies, accel) = pinned_state();
        let bytes = encode_state(7, 0.0703125, &bodies, &accel);
        assert_eq!((bytes.len(), fnv1a(&bytes)), (564, 0xa5fc_a029_fcc6_73a1));
        let back = decode_state(&bytes).expect("own frame decodes");
        assert_eq!((back.step, back.time), (7, 0.0703125));
        assert!(back.bodies.bit_eq(&bodies) && back.accel.bit_eq(&accel));
    }

    #[test]
    fn hostile_state_lengths_are_typed_errors() {
        let (bodies, accel) = pinned_state();
        let good = ckpt::unframe(&encode_state(7, 0.5, &bodies, &accel))
            .expect("own frame")
            .to_vec();
        let accel_count_at = 24 + bodies.len() * Body::ROW_BYTES;
        let patched = |at: usize, count: u64| {
            let mut p = good.clone();
            p[at..at + 8].copy_from_slice(&count.to_le_bytes());
            p
        };
        let cut = |len: usize| good[..len].to_vec();
        let grown = [&good[..], &[0; 3]].concat();
        use CkptError::{BadEncoding, TrailingBytes, Truncated};
        for (what, payload, want) in [
            ("body count u64::MAX", patched(16, u64::MAX), Truncated),
            ("count × 72 past the payload", patched(16, 9), Truncated),
            ("accel rows cut short", cut(good.len() - 8), Truncated),
            ("no accel count", cut(accel_count_at), Truncated),
            ("trailing bytes", grown, TrailingBytes(3)),
            (
                "accel count != body count",
                patched(accel_count_at, 4),
                BadEncoding("accel/bodies length mismatch"),
            ),
        ] {
            let bytes = ckpt::frame(|out| out.extend_from_slice(&payload));
            assert_eq!(decode_state(&bytes).err(), Some(want), "{what}");
        }
    }

    #[test]
    fn fault_free_chaos_run_is_clean() {
        let (bodies, report) = run_treecode(
            &ss_machine(),
            4,
            &FaultPlan::none(1),
            &ChaosConfig::default(),
            plummer(300, 42),
            &test_cfg(),
            6,
            0.01,
        );
        assert!(report.completed);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.lost_vtime, 0.0);
        // No injections, no loss, no recovery work — but the reliable
        // transport still acks every data packet it carries.
        let injected = report.drops
            + report.corruptions
            + report.duplicates
            + report.reorders
            + report.retransmits;
        assert_eq!(injected, 0);
        assert!(report.acks > 0);
        assert!((report.availability - 1.0).abs() < 1e-12);
        assert_eq!(bodies.len(), 300);
        assert!(report.final_vtime > 0.0);
    }

    /// The PR's acceptance run: a 16-rank treecode under paper-calibrated
    /// fault rates plus a guaranteed mid-run crash completes via
    /// retransmit + checkpoint/restart and produces the same physics as
    /// the fault-free run.
    #[test]
    fn treecode_16_ranks_survives_paper_faults_with_same_physics() {
        let machine = ss_machine();
        let cfg = test_cfg();
        let ics = plummer(480, 7);
        let steps = 6;
        let chaos = ChaosConfig {
            checkpoint_every: 2,
            ..Default::default()
        };
        let (clean_bodies, clean) = run_treecode(
            &machine,
            16,
            &FaultPlan::none(3),
            &chaos,
            ics.clone(),
            &cfg,
            steps,
            0.01,
        );
        assert!(clean.completed && clean.restarts == 0);

        // §2.1 rates, accelerated so the short virtual horizon sees real
        // soft-error pressure, plus one crash that is certain to land
        // mid-run (the calibrated per-rank crash draw is probabilistic).
        let mut plan = FaultPlan::paper_calibrated(
            &nodesim::ReliabilityModel::space_simulator(),
            16,
            clean.final_vtime,
            60.0,
            11,
        );
        plan.crashes.retain(|c| c.at > 0.2 * clean.final_vtime);
        let drop_p = plan.drop.max(0.08);
        plan = plan.with_drop(drop_p);
        plan = plan.with_crash(5, 0.6 * clean.final_vtime);

        let (bodies, report) = run_treecode(&machine, 16, &plan, &chaos, ics, &cfg, steps, 0.01);
        assert!(report.completed, "chaos run failed: {report:?}");
        assert!(report.restarts >= 1, "crash never fired: {report:?}");
        assert!(report.retransmits > 0 && report.drops > 0, "{report:?}");
        assert!(report.commits >= 1);
        assert!(report.lost_vtime > 0.0 && report.restart_overhead_s > 0.0);
        assert!(report.availability > 0.0 && report.availability < 1.0);
        assert!(report.final_vtime > clean.final_vtime);
        // Replicated state + exactly-once delivery + bit-exact
        // checkpoints: the recovered physics is the fault-free physics.
        let delta = max_pos_delta(&clean_bodies, &bodies);
        assert!(delta < 1e-12, "physics diverged by {delta}");
    }

    /// The degraded-mode acceptance run: with the failure detector armed,
    /// a crash is *silent* — no oracle flags the dead rank; survivors
    /// must reach a quorum verdict naming it — and recovery restores only
    /// the condemned rank's shard instead of restarting the world. The
    /// recovered physics is still bit-for-bit the fault-free physics.
    #[test]
    fn degraded_failover_restores_one_shard_with_same_physics() {
        let machine = ss_machine();
        let cfg = test_cfg();
        let ics = plummer(300, 42);
        let steps = 6;
        let chaos = ChaosConfig {
            checkpoint_every: 2,
            ..Default::default()
        };
        let (clean_bodies, clean) = run_treecode(
            &machine,
            4,
            &FaultPlan::none(21),
            &chaos,
            ics.clone(),
            &cfg,
            steps,
            0.01,
        );
        assert!(clean.completed && clean.restarts == 0);

        let plan = FaultPlan::none(21)
            .with_heartbeat(msg::HeartbeatConfig::default())
            .with_crash(2, 0.6 * clean.final_vtime);
        let (bodies, report) = run_treecode(&machine, 4, &plan, &chaos, ics, &cfg, steps, 0.01);
        assert!(report.completed, "degraded run failed: {report:?}");
        // The whole point: a detected crash costs one rank's failover,
        // never a world restart.
        assert_eq!(report.restarts, 0, "{report:?}");
        assert_eq!(report.shard_recoveries, 1, "{report:?}");
        assert_eq!(report.shard_fallbacks, 0, "{report:?}");
        assert!(report.shard_recovery_overhead_s > 0.0);
        assert!(report.commits >= 1);
        assert!(report.shard_bytes > 0 && report.shard_bytes < report.checkpoint_bytes);
        // Incremental commits: after the first full record per attempt,
        // dirty-cell deltas ship strictly fewer bytes than re-writing
        // full snapshots would.
        assert!(
            report.store_commit_bytes > 0 && report.store_commit_bytes < report.store_full_bytes,
            "delta commits not smaller: {} vs {} full",
            report.store_commit_bytes,
            report.store_full_bytes
        );
        assert!(report.availability > 0.0 && report.availability < 1.0);
        assert!(report.diagnosis.is_none(), "{report:?}");
        let delta = max_pos_delta(&clean_bodies, &bodies);
        assert!(delta < 1e-12, "physics diverged by {delta}");
    }

    /// At-rest rot in a committed shard is discovered at recovery decode
    /// time; recovery falls back to the previous complete generation
    /// instead of restoring rot (or crashing the recovery itself).
    #[test]
    fn corrupt_shard_falls_back_one_generation() {
        let machine = ss_machine();
        let cfg = test_cfg();
        let ics = plummer(250, 33);
        let steps = 4;
        let chaos = ChaosConfig {
            checkpoint_every: 2,
            corrupt_shard: Some((1, 2)),
            ..Default::default()
        };
        let (clean_bodies, clean) = run_treecode(
            &machine,
            4,
            &FaultPlan::none(35),
            &chaos,
            ics.clone(),
            &cfg,
            steps,
            0.01,
        );
        assert!(clean.completed, "{clean:?}");

        let plan = FaultPlan::none(35)
            .with_heartbeat(msg::HeartbeatConfig::default())
            .with_crash(1, 0.7 * clean.final_vtime);
        let (bodies, report) = run_treecode(&machine, 4, &plan, &chaos, ics, &cfg, steps, 0.01);
        assert!(report.completed, "fallback run failed: {report:?}");
        assert_eq!(report.restarts, 0, "{report:?}");
        assert_eq!(report.shard_recoveries, 1, "{report:?}");
        assert!(
            report.shard_fallbacks >= 1,
            "rotten generation never discarded: {report:?}"
        );
        let delta = max_pos_delta(&clean_bodies, &bodies);
        assert!(delta < 1e-12, "physics diverged by {delta}");
    }

    /// The livelock guard: an attacker crashing faster than the restart
    /// penalty produces identical recoveries that never advance the
    /// commit frontier. After `MAX_FUTILE_ATTEMPTS` of those, the run
    /// fails *with a diagnosis* instead of burning all of `max_attempts`
    /// (or, with a large cap, looping near-forever).
    #[test]
    fn repeated_crash_livelock_is_diagnosed() {
        let chaos = ChaosConfig {
            max_attempts: 50,
            restart_penalty_s: 0.0,
            // Commit only at the end: every mid-run crash lands before
            // any progress reaches stable storage.
            checkpoint_every: 10_000,
            ..Default::default()
        };
        let mut plan = FaultPlan::none(5);
        for k in 0..2000 {
            plan = plan.with_crash(1, (k + 1) as f64 * 5e-3);
        }
        let (_, report) = run_treecode(
            &ss_machine(),
            4,
            &plan,
            &chaos,
            plummer(200, 9),
            &test_cfg(),
            200,
            0.01,
        );
        assert!(!report.completed);
        assert_eq!(report.attempts, 3, "futile cap ignored: {report:?}");
        assert_eq!(report.restarts, 3);
        assert_eq!(report.availability, 0.0);
        let diag = report.diagnosis.expect("livelock must carry a diagnosis");
        assert!(diag.contains("livelock"), "unhelpful diagnosis: {diag}");
    }

    /// Teeth for the shared force phase: one bit of one stripe, flipped
    /// on one replica after the transport delivered it, must reach the
    /// final state. The damaged replica's next force phase no longer
    /// matches the others' input, so it has to be evaluated from the
    /// damaged state — handing it the healthy replicas' result instead
    /// would heal the divergence and leave the final state unchanged.
    #[test]
    fn corrupted_received_stripe_changes_the_final_state() {
        let run = |corrupt_stripe| {
            let chaos = ChaosConfig {
                corrupt_stripe,
                ..Default::default()
            };
            let (bodies, report) = run_treecode(
                &ss_machine(),
                4,
                &FaultPlan::none(19),
                &chaos,
                plummer(200, 23),
                &test_cfg(),
                4,
                0.01,
            );
            assert!(report.completed && report.restarts == 0, "{report:?}");
            bodies
        };
        let clean = run(None);
        assert!(run(None).bit_eq(&clean), "the clean run must repeat");
        // Replica 2 is not the one whose bodies are returned: the damage
        // travels to rank 0 through replica 2's own stripe, one step on.
        for step in 0..3 {
            let damaged = run(Some((2, step)));
            assert!(!damaged.bit_eq(&clean), "flip at step {step} was lost");
        }
    }

    #[test]
    fn lethal_plan_reports_failure_instead_of_hanging() {
        // Crash immediately on every attempt: repeated deaths before the
        // first commit must exhaust max_attempts, not loop forever. The
        // crash repeats because each restart's clock0 includes only the
        // restart penalty — with an attacker scheduling crashes faster
        // than the penalty, the job cannot make progress.
        let chaos = ChaosConfig {
            max_attempts: 3,
            restart_penalty_s: 0.0,
            ..Default::default()
        };
        let mut plan = FaultPlan::none(5);
        for k in 0..2000 {
            plan = plan.with_crash(1, (k + 1) as f64 * 5e-3);
        }
        let (_, report) = run_treecode(
            &ss_machine(),
            4,
            &plan,
            &chaos,
            plummer(200, 9),
            &test_cfg(),
            200,
            0.01,
        );
        assert!(!report.completed);
        assert_eq!(report.attempts, 3);
        assert_eq!(report.availability, 0.0);
        assert!(report.diagnosis.is_some(), "failure must explain itself");
    }

    #[test]
    fn checkpoints_shrink_lost_time() {
        // More frequent commits → less work destroyed per crash.
        let machine = ss_machine();
        let cfg = test_cfg();
        let ics = plummer(250, 13);
        // Baseline on the *cheapest* timeline (one end-of-run commit), so
        // the crash time below lands mid-run for both configurations —
        // the per-step variant only runs longer.
        let (_, clean) = run_treecode(
            &machine,
            4,
            &FaultPlan::none(17),
            &ChaosConfig {
                checkpoint_every: 8,
                ..Default::default()
            },
            ics.clone(),
            &cfg,
            8,
            0.01,
        );
        let crash_at = 0.6 * clean.final_vtime;
        let mut lost = Vec::new();
        for every in [8u64, 1] {
            let chaos = ChaosConfig {
                checkpoint_every: every,
                ..Default::default()
            };
            let plan = FaultPlan::none(17).with_crash(2, crash_at);
            let (_, report) = run_treecode(&machine, 4, &plan, &chaos, ics.clone(), &cfg, 8, 0.01);
            assert!(report.completed, "every={every}: {report:?}");
            assert_eq!(report.restarts, 1);
            lost.push(report.lost_vtime);
        }
        assert!(
            lost[1] < lost[0],
            "per-step checkpoints should lose less than end-only: {lost:?}"
        );
    }
}
