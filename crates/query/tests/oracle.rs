//! The brute-force-oracle test harness (ISSUE satellite 1 & 2, live
//! half): every distributed query answer — point, region/cone, kNN,
//! time-travel — must be *bit-identical* to an O(N) scan of the full
//! body set at the queried virtual time, across 1/2/4/16 ranks. Region
//! ids compare as sorted vectors; kNN compares `(dist2, id)` pairs with
//! exact float equality; time-travel answers are checked against the
//! state the checkpoint generation was committed at, which is exactly
//! what the same query would have seen live at that tick.

use hot::models::plummer;
use hot::tree::Body;
use msg::machine::Machine;
use query::{oracle, replicated_states, run, EngineConfig, EngineOutput, FleetConfig, QueryKind};

fn cfg(per_rank: u64) -> EngineConfig {
    EngineConfig {
        // A chunky timestep so bodies genuinely cross stripe boundaries
        // between ticks — the mid-migration paths stay hot.
        dt: 0.05,
        steps: 4,
        checkpoint_every: 2,
        fleet: FleetConfig {
            per_rank,
            ..FleetConfig::default()
        },
        ..EngineConfig::default()
    }
}

fn run_engine(ranks: usize, ics: &[Body], cfg: &EngineConfig) -> Vec<EngineOutput> {
    let ics = ics.to_vec();
    let cfg = *cfg;
    msg::comm::run_with(Machine::ideal(ranks as u32 + 2), ranks, move |comm| {
        run(comm, ics.clone(), &cfg)
    })
}

#[test]
fn every_query_class_matches_the_oracle_across_rank_counts() {
    let ics = plummer(96, 11);
    let cfg = cfg(32);
    let states = replicated_states(ics.clone(), &cfg);
    for ranks in [1usize, 2, 4, 16] {
        let outs = run_engine(ranks, &ics, &cfg);
        let mut point = 0u64;
        let mut region = 0u64;
        let mut knn = 0u64;
        let mut past = 0u64;
        for o in &outs {
            for r in &o.replies {
                // Live queries saw the replicated state after `tick`
                // steps; time-travel queries saw the union of the
                // shards committed at `at_step` — the same body set the
                // serial reference holds for that step.
                let reference = match r.at_step {
                    None => &states[r.tick as usize],
                    Some(s) => {
                        past += 1;
                        &states[s as usize]
                    }
                };
                match r.kind {
                    QueryKind::Point { .. } => point += 1,
                    QueryKind::Region(_) => region += 1,
                    QueryKind::Knn { .. } => knn += 1,
                }
                assert_eq!(
                    r.answer,
                    oracle::answer(reference, &r.kind),
                    "ranks={ranks} qid={} kind={:?} at_step={:?}",
                    r.qid,
                    r.kind,
                    r.at_step
                );
            }
        }
        assert!(
            point > 0 && region > 0 && knn > 0 && past > 0,
            "ranks={ranks}: degenerate mix point={point} region={region} knn={knn} past={past}"
        );
    }
}

#[test]
fn exactly_once_accounting_holds_on_every_rank_count() {
    let ics = plummer(64, 5);
    let cfg = cfg(24);
    for ranks in [1usize, 2, 4, 16] {
        for o in run_engine(ranks, &ics, &cfg) {
            assert_eq!(o.stats.issued, cfg.fleet.per_rank, "ranks={ranks}");
            assert_eq!(o.stats.answered, cfg.fleet.per_rank, "ranks={ranks}");
            assert_eq!(o.stats.dup_replies, 0, "ranks={ranks}");
            assert_eq!(o.stats.unanswered, 0, "ranks={ranks}");
            assert_eq!(o.replies.len() as u64, o.stats.answered);
        }
    }
}

#[test]
fn answers_are_independent_of_the_rank_partition() {
    // The same client stream (rank 0's) must get bit-identical answers
    // whether the universe is served by 1 rank or 16 — the partition is
    // unobservable.
    let ics = plummer(80, 23);
    let cfg = cfg(24);
    let solo = run_engine(1, &ics, &cfg);
    for ranks in [2usize, 4, 16] {
        let outs = run_engine(ranks, &ics, &cfg);
        assert_eq!(
            outs[0].replies.len(),
            solo[0].replies.len(),
            "ranks={ranks}"
        );
        for (a, b) in outs[0].replies.iter().zip(&solo[0].replies) {
            assert_eq!(a.qid, b.qid);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.at_step, b.at_step);
            assert_eq!(a.answer, b.answer, "ranks={ranks} qid={}", a.qid);
        }
    }
}

#[test]
fn time_travel_sees_genuinely_old_generations() {
    // With commits at steps 0 and 2, a past query batched into tick 3
    // must answer from generation 2 — one step behind the live universe
    // — and still match the oracle at *that* time, not the present.
    let ics = plummer(96, 31);
    let cfg = cfg(48);
    let states = replicated_states(ics.clone(), &cfg);
    let outs = run_engine(4, &ics, &cfg);
    let mut stale_hits = 0u64;
    for o in &outs {
        for r in &o.replies {
            if let (Some(s), 3) = (r.at_step, r.tick) {
                assert_eq!(s, 2, "tick 3 must target the step-2 generation");
                assert_eq!(r.answer, oracle::answer(&states[2], &r.kind));
                // The universe moved between step 2 and step 3, so for a
                // region query the answer at step 2 may differ from the
                // live answer — count the ones where it demonstrably
                // does, proving we read history rather than the present.
                if oracle::answer(&states[3], &r.kind) != r.answer {
                    stale_hits += 1;
                }
            }
        }
    }
    assert!(
        stale_hits > 0,
        "no time-travel answer differed from the live universe — \
         the history path is not being exercised"
    );
}

#[test]
fn committed_shards_roundtrip_and_union_to_the_full_state() {
    // Satellite 2, storage half: the per-rank shard bytes the engine
    // committed decode through `ckpt` with intact headers, materialize
    // through the snapshot store (generation 2 is a dirty-cell delta
    // against generation 0), and the union over ranks is bit-for-bit
    // the replicated state at that step.
    let ics = plummer(96, 31);
    let cfg = cfg(8);
    let states = replicated_states(ics.clone(), &cfg);
    let ranks = 4usize;
    let outs = run_engine(ranks, &ics, &cfg);
    for step in [0u64, 2] {
        let mut union: Vec<Body> = Vec::new();
        for (r, o) in outs.iter().enumerate() {
            // Decode the whole commit chain so delta generations have
            // their base: (step, store record bytes) in commit order.
            let records: Vec<(u64, Vec<u8>)> = o
                .commits
                .iter()
                .map(|(s, bytes)| {
                    let (hdr, record): (ckpt::ShardHeader, Vec<u8>) =
                        ckpt::load_shard(bytes).expect("shard decodes");
                    assert_eq!(hdr.rank, r as u32);
                    assert_eq!(hdr.of_ranks, ranks as u32);
                    assert_eq!(hdr.step, *s);
                    (*s, record)
                })
                .collect();
            let snap =
                store::log::materialize_records(&records, step).expect("generation materializes");
            let (shard, _aux) = snap.decode_all().expect("snapshot decodes");
            union.extend(shard);
        }
        let mut expect = states[step as usize].clone();
        union.sort_by_key(|b| b.id);
        expect.sort_by_key(|b| b.id);
        assert_eq!(union.len(), expect.len());
        for (a, b) in union.iter().zip(&expect) {
            assert_eq!(a.id, b.id);
            for d in 0..3 {
                assert_eq!(a.pos[d].to_bits(), b.pos[d].to_bits(), "id {}", a.id);
                assert_eq!(a.vel[d].to_bits(), b.vel[d].to_bits(), "id {}", a.id);
            }
            assert_eq!(a.mass.to_bits(), b.mass.to_bits());
        }
    }
}

#[test]
fn uncommitted_generations_answer_with_the_typed_miss_across_rank_counts() {
    // Satellite: a time-travel query for a generation the commit
    // schedule never produced must come back as `Answer::NotCommitted`
    // — typed, counted, and distinguishable from an empty region or an
    // unknown id — on every rank count, while the rest of the stream
    // still matches the oracle bit for bit.
    let ics = plummer(96, 17);
    let mut cfg = cfg(32);
    cfg.fleet.uncommitted_per_mille = 600;
    let states = replicated_states(ics.clone(), &cfg);
    for ranks in [1usize, 2, 4, 16] {
        let outs = run_engine(ranks, &ics, &cfg);
        let mut missed = 0u64;
        for o in &outs {
            let mut stat_misses = 0u64;
            for r in &o.replies {
                match r.at_step {
                    // The engine targets `last_commit + 1` for
                    // uncommitted clients; with commits every 2 steps
                    // that is always an odd, never-committed step.
                    Some(s) if s % cfg.checkpoint_every != 0 => {
                        assert_eq!(
                            r.answer,
                            query::Answer::NotCommitted,
                            "ranks={ranks} qid={} asked for uncommitted step {s}",
                            r.qid
                        );
                        missed += 1;
                        stat_misses += 1;
                    }
                    Some(s) => {
                        assert_eq!(r.answer, oracle::answer(&states[s as usize], &r.kind));
                    }
                    None => {
                        assert_eq!(r.answer, oracle::answer(&states[r.tick as usize], &r.kind));
                    }
                }
            }
            assert_eq!(
                o.stats.time_travel_miss, stat_misses,
                "ranks={ranks}: query.time_travel_miss must count exactly the typed misses"
            );
            assert_eq!(o.stats.unanswered, 0, "ranks={ranks}");
            assert_eq!(o.stats.dup_replies, 0, "ranks={ranks}");
        }
        assert!(
            missed > 0,
            "ranks={ranks}: the uncommitted path was never exercised"
        );
    }
}

#[test]
fn history_memory_stays_bounded_on_long_service_runs() {
    // Satellite: committed history used to accumulate decoded shard
    // bodies forever. Now the store holds full + dirty-cell delta
    // frames and decoded generations live in a bounded LRU — a long
    // run with a commit every tick must keep the decoded peak at the
    // configured cache size while every time-travel answer still
    // matches the oracle.
    let ics = plummer(96, 29);
    let cfg = EngineConfig {
        dt: 0.02,
        steps: 24,
        checkpoint_every: 1,
        history_cache: 2,
        fleet: FleetConfig {
            per_rank: 96,
            past_per_mille: 500,
            ..FleetConfig::default()
        },
        ..EngineConfig::default()
    };
    let states = replicated_states(ics.clone(), &cfg);
    let outs = run_engine(4, &ics, &cfg);
    for o in &outs {
        assert_eq!(o.history_generations, cfg.steps as usize);
        assert!(
            o.history_decoded_peak <= cfg.history_cache,
            "decoded-generation peak {} exceeds the cache bound {}",
            o.history_decoded_peak,
            cfg.history_cache
        );
        assert!(
            o.store_commit_bytes < o.store_full_bytes,
            "incremental commits ({} bytes) must beat full snapshots ({} bytes)",
            o.store_commit_bytes,
            o.store_full_bytes
        );
        let mut past = 0u64;
        for r in &o.replies {
            if let Some(s) = r.at_step {
                assert_eq!(r.answer, oracle::answer(&states[s as usize], &r.kind));
                past += 1;
            }
        }
        assert!(past > 0, "long run exercised no time-travel queries");
    }
}

#[test]
fn identical_runs_agree_on_everything_including_the_clock() {
    // Stats, answers, tick assignment and committed shard bytes are pure
    // functions of (ics, config). So are the clocks: on a crossbar every
    // arrival time is, and every receive of the protocol names its peer
    // (`alltoallv` for route and forward, peer order for replies), so
    // completion times cannot depend on which rank thread the host ran
    // first. With wildcard receives the 16-rank end clock took a
    // different value on every run.
    let ics = plummer(64, 13);
    let cfg = cfg(20);
    for ranks in [4usize, 16] {
        let a = run_engine(ranks, &ics, &cfg);
        let b = run_engine(ranks, &ics, &cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stats, y.stats);
            assert_eq!(x.commits, y.commits);
            assert_eq!(x.end_s.to_bits(), y.end_s.to_bits(), "ranks={ranks}");
            assert_eq!(x.replies.len(), y.replies.len());
            for (p, q) in x.replies.iter().zip(&y.replies) {
                assert_eq!(p.qid, q.qid);
                assert_eq!(p.tick, q.tick);
                assert_eq!(p.at_step, q.at_step);
                assert_eq!(p.kind, q.kind);
                assert_eq!(p.at_s.to_bits(), q.at_s.to_bits());
                assert_eq!(p.done_s.to_bits(), q.done_s.to_bits(), "qid {}", p.qid);
                assert_eq!(p.answer, q.answer, "qid {}", p.qid);
            }
        }
    }
}
