//! The latency-hiding telemetry contract: a distributed deferred-walk
//! run must surface its overlap counters (`walk.deferred`,
//! `walk.resumed`, `walk.prefetched`, `abm.coalesced`, and
//! `abm.flush_deadline` whenever a batch aged past its deadline) and its
//! sharing counters
//! (`walk.groups`, `walk.list_entries`) in the structural summary, on a
//! fault-free machine every parked walk must be
//! resumed exactly as many times as it parked (a prefetch wakes no one),
//! and the bodies of a group must share their interaction-list entries. The golden-trace
//! worlds replicate physics on every rank and never exercise the
//! distributed engine, so this is the test that keeps the overlap
//! telemetry observable end to end (engine -> Comm recorder -> merged
//! WorldTrace -> summary text).

use cluster::ics::golden_ics;
use hot::models::plummer;
use hot::parallel::{parallel_accelerations, ParallelConfig};
use hot::tree::Body;
use msg::Machine;

const RANKS: usize = 4;

/// Total for `name` from the summary's leading `totals` block
/// (`  counter <name> <value>`), if the summary has the counter; the
/// per-rank sections repeat the counter, but the totals block always
/// lists it first.
fn find_counter(summary: &str, name: &str) -> Option<u64> {
    let needle = format!("counter {name} ");
    let line = summary
        .lines()
        .find(|l| l.trim_start().starts_with(&needle))?;
    let value = line.rsplit(' ').next().and_then(|v| v.parse().ok());
    Some(value.unwrap_or_else(|| panic!("unparseable counter line: {line}")))
}

fn counter_total(summary: &str, name: &str) -> u64 {
    find_counter(summary, name)
        .unwrap_or_else(|| panic!("structural summary lost the {name} counter:\n{summary}"))
}

/// Structural summary of a 4-rank strided-split distributed walk.
fn summary_of(ics: &[Body]) -> String {
    let (_, trace) = msg::run_observed(Machine::ideal(RANKS as u32), RANKS, |comm| {
        let size = comm.size();
        let rank = comm.rank();
        let mine: Vec<_> = ics
            .iter()
            .enumerate()
            .filter(|(i, _)| i % size == rank)
            .map(|(_, b)| *b)
            .collect();
        parallel_accelerations(comm, mine, &ParallelConfig::default());
    });
    obs::structural_summary(&trace)
}

#[test]
fn overlap_counters_surface_in_structural_summary() {
    let summary = summary_of(&golden_ics(96, 42));

    // These five cannot be zero on this input, so each must have a row.
    for name in [
        "walk.deferred",
        "walk.resumed",
        "walk.groups",
        "walk.list_entries",
        "abm.coalesced",
    ] {
        assert!(counter_total(&summary, name) > 0, "{name} is zero");
    }
    // A deadline flush needs a batch to age 200 virtual µs before it fills
    // or the engine idles, which depends on how the rank threads
    // interleave, and `obs::Metrics::add` keeps a zero delta for a name
    // it has not seen out of the summary (or a row per never-hit counter
    // would enter every golden): the row is absent when there were none.
    assert_ne!(find_counter(&summary, "abm.flush_deadline"), Some(0));

    // A 4-rank strided split of a Plummer ball cannot satisfy every MAC
    // test locally, so the engine must actually have overlapped: walks
    // parked on remote fetches, and every park was matched by exactly
    // one resume once its reply landed.
    let deferred = counter_total(&summary, "walk.deferred");
    let resumed = counter_total(&summary, "walk.resumed");
    assert!(deferred > 0, "no walk ever deferred on a remote fetch");
    assert_eq!(
        deferred, resumed,
        "parked walks leaked: {deferred} parks vs {resumed} resumes"
    );
}

#[test]
fn groups_share_their_interaction_lists() {
    // One descent serves a whole group: an accepted cell or gathered leaf
    // body is stored once for all the bodies that take it. If the engine
    // went back to one list per body the factor would be exactly 1 (and
    // resident memory several times what it is).
    let summary = summary_of(&plummer(1536, 42));
    let deferred = counter_total(&summary, "walk.deferred");
    assert!(deferred > 0, "no walk ever deferred on a remote fetch");
    assert_eq!(deferred, counter_total(&summary, "walk.resumed"));
    // A parking walk also asks for the rest of the frontier it will open,
    // with no walk waiting on those fetches.
    let prefetched = counter_total(&summary, "walk.prefetched");
    assert!(prefetched > 0, "no parking walk prefetched its frontier");

    let groups = counter_total(&summary, "walk.groups");
    assert!(
        (1536 / 8..1536 / 8 + RANKS as u64).contains(&groups),
        "{groups} walks for 1536 bodies on {RANKS} ranks"
    );
    let interactions = counter_total(&summary, "walk.interactions");
    let entries = counter_total(&summary, "walk.list_entries");
    assert!(
        interactions >= 3 * entries,
        "sharing factor {:.2}: {interactions} interactions from {entries} list entries",
        interactions as f64 / entries as f64
    );
}
