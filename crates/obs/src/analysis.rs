//! Trace analysis: critical path over the happens-before DAG and
//! POP-style parallel-efficiency accounting.
//!
//! A merged [`WorldTrace`] with message edges is a happens-before DAG:
//! per-rank span timelines plus send→recv edges joined on the sender's
//! `(rank, seq)`. Two derived reports turn it into the paper's §4
//! discussion for any run:
//!
//! * [`critical_path`] — walks backward from the rank that determines
//!   `end_time()`. Whenever the walk reaches a *blocked* receive
//!   (`wait > 0`) it jumps across the wire to the sender, because a
//!   blocked receive ends exactly at the message's arrival: the receiver
//!   was waiting, so the sender-plus-wire chain is what bounded progress.
//!   The result partitions `[start_time, end_time]` into local work
//!   (attributed to the innermost covering span), wire segments (classed
//!   per [`LinkClass`]: intra-module, uplink, trunk), and unattributable
//!   waits.
//!
//! ## Why `wait_s` is 0.0 in every healthy run
//!
//! Blocked-receive time is *not* folded into wire time by accident: a
//! blocked receive whose matching send exists is **caused** by the
//! sender chain, so the walk crosses the edge and charges the blocked
//! interval to the sender's work plus the modeled wire transfer — the
//! decomposition the POP `transfer`/`serialization` factors need.
//! Charging it to `Wait` as well would double-count the interval and
//! hide the cause. A [`SegKind::Wait`] segment appears only when the
//! edge cannot be followed: the sender half is missing from the trace
//! (crashed rank, truncated recording) or is causally inconsistent
//! (recorded send time at/after the walk's current position, which
//! following would loop on). So `wait_s() == 0.0` in every standing
//! bench scenario is the attribution working as designed — nonzero wait
//! in a report is a trace-integrity signal, not a performance number —
//! and the `cp_wait_attribution` tests below pin both directions.
//! * [`efficiency`] — factors measured parallel efficiency into
//!   load balance × transfer × serialization with an *exact* product
//!   identity (the proptests hold it to 1e-9), plus a per-phase
//!   load-balance/communication split over the depth-0 spans.
//!
//! Everything here is a pure function of the trace, so analyses of a
//! deterministic run are themselves byte-deterministic and live in the
//! golden snapshot.

use crate::recorder::{LinkClass, RankTrace, WorldTrace};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Span name charged for local time not covered by any recorded span.
pub const UNTRACED: &str = "(untraced)";

/// What one critical-path segment was doing.
#[derive(Debug, Clone, PartialEq)]
pub enum SegKind {
    /// Local execution on `rank`, attributed to the innermost span.
    Work(&'static str),
    /// A message edge the path crossed, from `src` to the segment's rank.
    Wire { src: usize, link: LinkClass },
    /// Blocked on an edge with no recorded sender half.
    Wait,
}

/// One segment of the critical path; segments tile `[t0, t1]` intervals
/// backward from `end_time()` with no gaps or overlaps.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    pub rank: usize,
    pub t0: f64,
    pub t1: f64,
    pub kind: SegKind,
}

impl Segment {
    pub fn len(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Stable label for aggregation: the span name for work, `wire:<class>`
    /// for wire, `wait` for unattributed blocking.
    pub fn label(&self) -> String {
        match &self.kind {
            SegKind::Work(name) => (*name).to_string(),
            SegKind::Wire { link, .. } => format!("wire:{}", link.name()),
            SegKind::Wait => "wait".to_string(),
        }
    }
}

/// The extracted critical path: segments ordered from `t_end` backward.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    pub segments: Vec<Segment>,
    /// Earliest recording start (0 for a fresh world).
    pub t_start: f64,
    /// `WorldTrace::end_time()` of the analyzed trace.
    pub t_end: f64,
}

impl CriticalPath {
    /// End-to-end virtual time the path accounts for.
    pub fn total(&self) -> f64 {
        self.segments.iter().map(Segment::len).sum()
    }

    pub fn work_s(&self) -> f64 {
        self.kind_total(|k| matches!(k, SegKind::Work(_)))
    }

    pub fn wire_total_s(&self) -> f64 {
        self.kind_total(|k| matches!(k, SegKind::Wire { .. }))
    }

    pub fn wait_s(&self) -> f64 {
        self.kind_total(|k| matches!(k, SegKind::Wait))
    }

    fn kind_total(&self, f: impl Fn(&SegKind) -> bool) -> f64 {
        // `+ 0.0` canonicalizes an IEEE-754 negative zero (a possible
        // sum of zero-length segments) so reports never print `-0.0`.
        self.segments
            .iter()
            .filter(|s| f(&s.kind))
            .map(Segment::len)
            .sum::<f64>()
            + 0.0
    }

    /// Wire time on the path per link class, indexed by `LinkClass::index`.
    pub fn wire_by_class(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        for s in &self.segments {
            if let SegKind::Wire { link, .. } = s.kind {
                out[link.index()] += s.len();
            }
        }
        out
    }

    /// Wire time on the path for one link class.
    pub fn wire_s(&self, link: LinkClass) -> f64 {
        self.wire_by_class()[link.index()]
    }

    /// The link class carrying the most critical-path wire time, if any
    /// wire time exists at all. Ties resolve to the first class in
    /// `LinkClass::ALL` order.
    pub fn dominant_wire(&self) -> Option<LinkClass> {
        let by = self.wire_by_class();
        let mut best: Option<LinkClass> = None;
        for c in LinkClass::ALL {
            if by[c.index()] > 0.0 && best.is_none_or(|b| by[c.index()] > by[b.index()]) {
                best = Some(c);
            }
        }
        best
    }

    /// Aggregated contributors sorted by descending time (ties by label):
    /// one entry per span name / wire class / wait.
    pub fn contributors(&self) -> Vec<(String, f64)> {
        let mut agg: BTreeMap<String, f64> = BTreeMap::new();
        for s in &self.segments {
            *agg.entry(s.label()).or_insert(0.0) += s.len();
        }
        let mut out: Vec<(String, f64)> = agg.into_iter().collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch (test builds only): the walk charges the first
    /// cross-rank edge it reaches as a local wait instead of crossing it.
    static DROP_CP_EDGE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Extract the critical path of a merged world trace. Total = O(path
/// length × per-rank records); pure and deterministic.
pub fn critical_path(w: &WorldTrace) -> CriticalPath {
    let t_start = w.start_time();
    let t_end = w.end_time();
    let mut cp = CriticalPath {
        segments: Vec::new(),
        t_start,
        t_end,
    };
    if w.ranks.is_empty() || t_end <= t_start {
        return cp;
    }
    let mut rank = 0usize;
    for r in &w.ranks {
        if r.end > w.ranks[rank].end {
            rank = r.rank;
        }
    }
    let mut cur = t_end;
    // Backstop against malformed (e.g. fuzzed) traces; every iteration
    // of the real walk strictly decreases `cur`.
    let mut fuel = 10_000_000u64;
    #[cfg(test)]
    let mut edge_dropped = false;
    while cur > t_start && fuel > 0 {
        fuel -= 1;
        let r = &w.ranks[rank];
        let Some(rec) = latest_blocked_recv(r, cur) else {
            attribute_local(r, t_start, cur, &mut cp.segments);
            break;
        };
        attribute_local(r, rec.t_end, cur, &mut cp.segments);
        cur = rec.t_end.min(cur);
        // Cross the edge to its sender when the sender half exists and
        // is causally earlier; otherwise charge the blocking wait and
        // stay local (strict progress either way: wait > 0).
        let joined = w
            .ranks
            .get(rec.src as usize)
            .and_then(|s| s.send_by_seq(rec.seq))
            .copied();
        #[cfg(test)]
        let joined = if DROP_CP_EDGE.get() && !edge_dropped && rec.src as usize != rank {
            edge_dropped = true;
            None
        } else {
            joined
        };
        match joined {
            Some(s) if s.t < cur => {
                let lo = s.t.max(t_start);
                cp.segments.push(Segment {
                    rank,
                    t0: lo,
                    t1: cur,
                    kind: SegKind::Wire {
                        src: rec.src as usize,
                        link: s.link,
                    },
                });
                rank = rec.src as usize;
                cur = lo;
            }
            _ => {
                let lo = (cur - rec.wait).max(t_start);
                cp.segments.push(Segment {
                    rank,
                    t0: lo,
                    t1: cur,
                    kind: SegKind::Wait,
                });
                cur = lo;
            }
        }
    }
    cp
}

/// Latest receive on `r` that blocked (`wait > 0`) and completed at or
/// before `cur`. Receives are sorted by `(t_end, seq)`.
fn latest_blocked_recv(r: &RankTrace, cur: f64) -> Option<crate::recorder::RecvRec> {
    let hi = r.recvs.partition_point(|rec| rec.t_end <= cur);
    r.recvs[..hi]
        .iter()
        .rev()
        .find(|rec| rec.wait > 0.0)
        .copied()
}

/// Attribute local time `[lo, hi]` on rank `r` to the innermost covering
/// spans, splitting at span boundaries and merging adjacent pieces with
/// the same attribution. Uncovered time is charged to [`UNTRACED`].
fn attribute_local(r: &RankTrace, lo: f64, hi: f64, out: &mut Vec<Segment>) {
    if hi <= lo {
        return;
    }
    // Candidate spans: start before `hi` (prefix of the sorted vec) and
    // end after `lo`.
    let prefix = r.spans.partition_point(|s| s.t0 < hi);
    let cands: Vec<&crate::recorder::Span> =
        r.spans[..prefix].iter().filter(|s| s.t1 > lo).collect();
    let mut cuts: Vec<f64> = vec![lo, hi];
    for s in &cands {
        if s.t0 > lo && s.t0 < hi {
            cuts.push(s.t0);
        }
        if s.t1 > lo && s.t1 < hi {
            cuts.push(s.t1);
        }
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    // Elementary intervals between cuts have constant span coverage, so
    // "covers the whole interval" picks the innermost deterministically.
    let mut pending: Option<(f64, f64, &'static str)> = None;
    for pair in cuts.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if b <= a {
            continue;
        }
        let mut name = UNTRACED;
        let mut best = (0u16, 0u32);
        let mut found = false;
        for s in &cands {
            if s.t0 <= a && s.t1 >= b && (!found || (s.depth, s.seq) >= best) {
                best = (s.depth, s.seq);
                name = s.name;
                found = true;
            }
        }
        match pending {
            Some((p0, _, pname)) if pname == name => pending = Some((p0, b, pname)),
            Some((p0, p1, pname)) => {
                out.push(Segment {
                    rank: r.rank,
                    t0: p0,
                    t1: p1,
                    kind: SegKind::Work(pname),
                });
                pending = Some((a, b, name));
            }
            None => pending = Some((a, b, name)),
        }
    }
    if let Some((p0, p1, pname)) = pending {
        out.push(Segment {
            rank: r.rank,
            t0: p0,
            t1: p1,
            kind: SegKind::Work(pname),
        });
    }
}

/// One depth-0 phase's efficiency factors across ranks. "Busy" is phase
/// time not spent blocked in a receive; ranks where the phase never ran
/// count as zero (imbalance includes absence).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEff {
    pub name: &'static str,
    /// Slowest rank's total time inside the phase.
    pub max_total_s: f64,
    pub avg_busy_s: f64,
    pub max_busy_s: f64,
    /// `avg_busy / max_total` — the phase's measured parallel efficiency.
    pub parallel_efficiency: f64,
    /// `avg_busy / max_busy`.
    pub load_balance: f64,
    /// `max_busy / max_total`; `load_balance × comm = parallel` exactly.
    pub comm_efficiency: f64,
}

/// POP-style efficiency factorization of a run.
///
/// With `T = end - start`, `u_r` the per-rank modeled compute (gauge
/// `vt.compute_s`, clamped to `[0, T]`), and `cp_nonwork` the wire+wait
/// time on the critical path:
///
/// ```text
/// parallel   = avg(u) / T
/// load_bal   = avg(u) / max(u)
/// T_ideal    = max(T - cp_nonwork, max(u))      (what a zero-wire run costs)
/// transfer   = T_ideal / T
/// serial     = max(u) / T_ideal
/// comm       = transfer × serial = max(u) / T
/// parallel   = load_bal × transfer × serial     (exact identity)
/// ```
///
/// All factors are in `[0, 1]` by construction; the proptests pin both
/// properties.
#[derive(Debug, Clone, PartialEq)]
pub struct Efficiency {
    /// Analyzed horizon `T` (virtual seconds).
    pub horizon_s: f64,
    /// Per-rank modeled compute, clamped to the horizon.
    pub useful_s: Vec<f64>,
    pub parallel_efficiency: f64,
    pub load_balance: f64,
    pub comm_efficiency: f64,
    pub transfer_efficiency: f64,
    pub serialization_efficiency: f64,
    /// Wire + wait time on the critical path.
    pub cp_nonwork_s: f64,
    /// Per depth-0 phase factors, sorted by name.
    pub phases: Vec<PhaseEff>,
}

/// Compute the efficiency factorization from a trace and its critical
/// path (pass the output of [`critical_path`] on the same trace).
pub fn efficiency(w: &WorldTrace, cp: &CriticalPath) -> Efficiency {
    let t0 = w.start_time();
    let t = w.end_time() - t0;
    let p = w.ranks.len().max(1);
    let useful: Vec<f64> = w
        .ranks
        .iter()
        .map(|r| {
            r.metrics
                .gauge("vt.compute_s")
                .unwrap_or(0.0)
                .clamp(0.0, t.max(0.0))
        })
        .collect();
    let cp_nonwork = cp.wire_total_s() + cp.wait_s();
    if t <= 0.0 {
        return Efficiency {
            horizon_s: 0.0,
            useful_s: useful,
            parallel_efficiency: 1.0,
            load_balance: 1.0,
            comm_efficiency: 1.0,
            transfer_efficiency: 1.0,
            serialization_efficiency: 1.0,
            cp_nonwork_s: cp_nonwork,
            phases: Vec::new(),
        };
    }
    let max_u = useful.iter().fold(0.0f64, |a, &b| a.max(b));
    let avg_u = useful.iter().sum::<f64>() / p as f64;
    let t_ideal = (t - cp_nonwork).max(max_u).max(0.0);
    let load_balance = if max_u > 0.0 { avg_u / max_u } else { 1.0 };
    let transfer = t_ideal / t;
    let serial = if t_ideal > 0.0 { max_u / t_ideal } else { 1.0 };
    Efficiency {
        horizon_s: t,
        useful_s: useful,
        parallel_efficiency: avg_u / t,
        load_balance,
        comm_efficiency: max_u / t,
        transfer_efficiency: transfer,
        serialization_efficiency: serial,
        cp_nonwork_s: cp_nonwork,
        phases: phase_efficiency(w),
    }
}

/// Per depth-0-phase busy/total accounting across ranks.
pub fn phase_efficiency(w: &WorldTrace) -> Vec<PhaseEff> {
    let p = w.ranks.len().max(1);
    // name -> per-rank (total, busy)
    let mut acc: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
    for (i, r) in w.ranks.iter().enumerate() {
        for s in &r.spans {
            if s.depth != 0 {
                continue;
            }
            let total = s.t1 - s.t0;
            // Blocked-receive time overlapping this span: wait interval
            // is [t_end - wait, t_end].
            let mut waited = 0.0;
            for rec in &r.recvs {
                if rec.wait <= 0.0 {
                    continue;
                }
                let w0 = (rec.t_end - rec.wait).max(s.t0);
                let w1 = rec.t_end.min(s.t1);
                if w1 > w0 {
                    waited += w1 - w0;
                }
            }
            let e = &mut acc.entry(s.name).or_insert_with(|| vec![(0.0, 0.0); p])[i];
            e.0 += total;
            e.1 += (total - waited).max(0.0);
        }
    }
    acc.into_iter()
        .map(|(name, per_rank)| {
            let max_total = per_rank.iter().fold(0.0f64, |a, &(t, _)| a.max(t));
            let max_busy = per_rank.iter().fold(0.0f64, |a, &(_, b)| a.max(b));
            let avg_busy = per_rank.iter().map(|&(_, b)| b).sum::<f64>() / p as f64;
            PhaseEff {
                name,
                max_total_s: max_total,
                avg_busy_s: avg_busy,
                max_busy_s: max_busy,
                parallel_efficiency: if max_total > 0.0 {
                    avg_busy / max_total
                } else {
                    1.0
                },
                load_balance: if max_busy > 0.0 {
                    avg_busy / max_busy
                } else {
                    1.0
                },
                comm_efficiency: if max_total > 0.0 {
                    max_busy / max_total
                } else {
                    1.0
                },
            }
        })
        .collect()
}

/// How many top contributors [`render_analysis`] prints.
pub const TOP_K: usize = 10;

/// Deterministic text rendering of a critical path + efficiency pair —
/// the `analysis v1` block embedded in `structural_summary` (and hence
/// the golden snapshot) and printed by `trace_dump --analysis`.
pub fn render_analysis(cp: &CriticalPath, eff: &Efficiency) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "analysis v1");
    let _ = writeln!(
        out,
        "critical-path total_s {:?} segments {} work_s {:?} wire_s {:?} wait_s {:?}",
        cp.total(),
        cp.segments.len(),
        cp.work_s(),
        cp.wire_total_s(),
        cp.wait_s()
    );
    let total = cp.total();
    for (label, secs) in cp.contributors().into_iter().take(TOP_K) {
        let share = if total > 0.0 { secs / total } else { 0.0 };
        let _ = writeln!(out, "  cp {label} {secs:?} share {share:?}");
    }
    let by = cp.wire_by_class();
    let _ = write!(out, "cp-wire");
    for c in LinkClass::ALL {
        let _ = write!(out, " {} {:?}", c.name(), by[c.index()]);
    }
    let _ = writeln!(
        out,
        " dominant {}",
        cp.dominant_wire().map_or("none", LinkClass::name)
    );
    let _ = writeln!(
        out,
        "efficiency parallel {:?} load-balance {:?} comm {:?} transfer {:?} serialization {:?}",
        eff.parallel_efficiency,
        eff.load_balance,
        eff.comm_efficiency,
        eff.transfer_efficiency,
        eff.serialization_efficiency
    );
    for ph in &eff.phases {
        let _ = writeln!(
            out,
            "  phase {} par {:?} lb {:?} comm {:?} max_total_s {:?}",
            ph.name, ph.parallel_efficiency, ph.load_balance, ph.comm_efficiency, ph.max_total_s
        );
    }
    out
}

/// Convenience: critical path + efficiency + rendering in one call.
pub fn analysis_report(w: &WorldTrace) -> String {
    let cp = critical_path(w);
    let eff = efficiency(w, &cp);
    render_analysis(&cp, &eff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    /// rank 0 computes [0, 1], sends; rank 1 blocks from 0.2 until the
    /// message arrives at 1.5, then computes [1.5, 2.0].
    fn two_rank_world() -> WorldTrace {
        let mut r0 = Recorder::new(0, 2);
        r0.enter(0.0, "r0.work");
        r0.exit(1.0, "r0.work");
        r0.on_msg_send(1.0, 1, 0, 4096, 0.0, LinkClass::Intra);
        r0.metrics.set_gauge("vt.compute_s", 1.0);
        let t0 = r0.finish(1.0);

        let mut r1 = Recorder::new(1, 2);
        r1.enter(0.0, "r1.recv");
        r1.on_msg_recv(0, 0, 1.5, 1.5, 1.3);
        r1.exit(1.5, "r1.recv");
        r1.enter(1.5, "r1.work");
        r1.exit(2.0, "r1.work");
        r1.metrics.set_gauge("vt.compute_s", 0.5);
        let t1 = r1.finish(2.0);
        WorldTrace::from_ranks(vec![t0, t1])
    }

    /// The golden world (`cluster::ics::golden_run`: 16 ranks, 4 steps)
    /// rebuilt from the edge fixture `cluster`'s golden-trace test keeps
    /// beside the golden summary: spans, blocked receives, the sends they
    /// name and each rank's modeled compute.
    fn golden_world() -> WorldTrace {
        let text = include_str!("../../cluster/tests/golden/treecode16.edges");
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("golden-edges v1"));
        let size: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("ranks "))
            .expect("ranks line")
            .parse()
            .unwrap();
        let mut ranks: Vec<RankTrace> = Vec::new();
        for line in lines {
            let t: Vec<&str> = line.split_whitespace().collect();
            let f = |i: usize| -> f64 { t[i].parse().unwrap() };
            let u = |i: usize| -> u64 { t[i].parse().unwrap() };
            if t[0] == "rank" {
                let mut metrics = crate::metrics::Registry::new();
                metrics.set_gauge("vt.compute_s", f(7));
                ranks.push(RankTrace {
                    rank: t[1].parse().unwrap(),
                    spans: Vec::new(),
                    metrics,
                    link_bytes: vec![0; size],
                    link_msgs: vec![0; size],
                    class_bytes: [0; 4],
                    class_msgs: [0; 4],
                    dropped_spans: 0,
                    start: f(3),
                    end: f(5),
                    sends: Vec::new(),
                    recvs: Vec::new(),
                    timeline: None,
                });
                continue;
            }
            let r = ranks.last_mut().expect("a rank line first");
            match t[0] {
                "span" => r.spans.push(crate::recorder::Span {
                    name: Box::leak(t[1].to_string().into_boxed_str()),
                    t0: f(2),
                    t1: f(3),
                    depth: t[4].parse().unwrap(),
                    seq: t[5].parse().unwrap(),
                }),
                "recv" => r.recvs.push(crate::recorder::RecvRec {
                    src: t[1].parse().unwrap(),
                    seq: u(2),
                    arrival: f(3),
                    t_end: f(4),
                    wait: f(5),
                }),
                "send" => r.sends.push(crate::recorder::SendRec {
                    dst: t[1].parse().unwrap(),
                    seq: u(2),
                    t: f(3),
                    bytes: u(4),
                    queued: f(5),
                    link: *LinkClass::ALL
                        .iter()
                        .find(|c| c.name() == t[6])
                        .expect("link class"),
                }),
                other => panic!("unknown fixture record {other:?}"),
            }
        }
        WorldTrace::from_ranks(ranks)
    }

    #[test]
    fn golden_edges_reproduce_the_golden_analysis() {
        let summary = include_str!("../../cluster/tests/golden/treecode16.summary");
        let block = &summary[summary.find("analysis v1").expect("analysis block")..];
        assert_eq!(analysis_report(&golden_world()), block);
    }

    /// Teeth for `trace_dump --diff`: a critical path that charges one
    /// cross-rank edge of the golden world as a local wait must show in
    /// the diff of the two summaries, as a regression.
    #[test]
    fn diff_oracle_catches_a_dropped_critical_path_edge() {
        let w = golden_world();
        let clean = crate::export::structural_summary(&w);
        assert_eq!(clean, crate::export::structural_summary(&w));
        DROP_CP_EDGE.set(true);
        let mutant = crate::export::structural_summary(&w);
        DROP_CP_EDGE.set(false);
        let d = crate::diff::diff_summaries(&clean, &mutant);
        let moved: Vec<&str> = d
            .entries
            .iter()
            .filter(|e| e.delta() != 0.0)
            .map(|e| e.label.as_str())
            .collect();
        assert!(
            moved.contains(&"cp:wire") || moved.contains(&"cp:wait"),
            "the diff missed the dropped edge: {moved:?}"
        );
        let (text, regressed) = crate::diff::render_diff(&d, 0.0);
        assert!(regressed, "{text}");
    }

    #[test]
    fn critical_path_crosses_the_wire() {
        let w = two_rank_world();
        w.check_invariants().unwrap();
        let cp = critical_path(&w);
        assert!((cp.total() - 2.0).abs() < 1e-12, "{cp:?}");
        assert!((cp.wire_s(LinkClass::Intra) - 0.5).abs() < 1e-12, "{cp:?}");
        assert_eq!(cp.dominant_wire(), Some(LinkClass::Intra));
        // Path visits rank 1's work, the wire, then rank 0's work.
        let labels: Vec<String> = cp.segments.iter().map(Segment::label).collect();
        assert_eq!(labels, vec!["r1.work", "wire:intra", "r0.work"]);
    }

    #[test]
    fn unmatched_edge_falls_back_to_wait() {
        let mut r0 = Recorder::new(0, 2);
        r0.metrics.set_gauge("vt.compute_s", 0.0);
        let t0 = r0.finish(0.5);
        let mut r1 = Recorder::new(1, 2);
        // Receiver-only record (e.g. sender trace lost): wait 0.4.
        r1.on_msg_recv(0, 7, 1.0, 1.0, 0.4);
        let t1 = r1.finish(1.0);
        let w = WorldTrace::from_ranks(vec![t0, t1]);
        let cp = critical_path(&w);
        assert!((cp.total() - 1.0).abs() < 1e-12, "{cp:?}");
        assert!((cp.wait_s() - 0.4).abs() < 1e-12, "{cp:?}");
        assert_eq!(cp.dominant_wire(), None);
    }

    /// Pin of the standing-report question "why is `cp_wait_s` ≡ 0.0?":
    /// genuine blocked-receive time whose sender half is present is
    /// charged to the sender chain (work + wire), never to `Wait` —
    /// charging both would double-count the same interval.
    #[test]
    fn cp_wait_attribution_joined_edge_charges_sender_chain_not_wait() {
        let w = two_rank_world();
        // Rank 1 really did block: 1.3 s of recv wait is in the trace.
        assert!(w.ranks[1].recvs.iter().any(|r| r.wait > 1.0));
        let cp = critical_path(&w);
        assert_eq!(cp.wait_s(), 0.0, "{cp:?}");
        assert!(!cp.segments.iter().any(|s| s.kind == SegKind::Wait));
        // The blocked interval is fully tiled by sender work + wire:
        // work + wire alone account for the whole horizon.
        assert!(
            (cp.work_s() + cp.wire_total_s() - cp.total()).abs() < 1e-12,
            "{cp:?}"
        );
    }

    /// The other direction: a recorded send that is causally
    /// inconsistent (at/after the walk's position) must not be followed
    /// — the blocked time degrades to an honest `Wait` segment, exactly
    /// like a missing sender half.
    #[test]
    fn cp_wait_attribution_causally_inconsistent_sender_degrades_to_wait() {
        let mut r0 = Recorder::new(0, 2);
        // Send recorded at t=1.0 — not before the receive completes.
        r0.on_msg_send(1.0, 1, 7, 64, 0.0, LinkClass::Intra);
        let t0 = r0.finish(1.0);
        let mut r1 = Recorder::new(1, 2);
        r1.on_msg_recv(0, 7, 1.0, 1.0, 0.4);
        let t1 = r1.finish(1.2);
        let w = WorldTrace::from_ranks(vec![t0, t1]);
        let cp = critical_path(&w);
        assert!((cp.wait_s() - 0.4).abs() < 1e-12, "{cp:?}");
        assert_eq!(cp.wire_total_s(), 0.0, "inconsistent edge crossed: {cp:?}");
        assert!((cp.total() - 1.2).abs() < 1e-12, "{cp:?}");
    }

    #[test]
    fn efficiency_product_identity_and_bounds() {
        let w = two_rank_world();
        let cp = critical_path(&w);
        let eff = efficiency(&w, &cp);
        assert!((eff.parallel_efficiency - 0.375).abs() < 1e-12);
        assert!((eff.load_balance - 0.75).abs() < 1e-12);
        assert!((eff.transfer_efficiency - 0.75).abs() < 1e-12);
        assert!((eff.serialization_efficiency - 2.0 / 3.0).abs() < 1e-12);
        let product = eff.load_balance * eff.transfer_efficiency * eff.serialization_efficiency;
        assert!((product - eff.parallel_efficiency).abs() < 1e-12);
        for f in [
            eff.parallel_efficiency,
            eff.load_balance,
            eff.comm_efficiency,
            eff.transfer_efficiency,
            eff.serialization_efficiency,
        ] {
            assert!((0.0..=1.0).contains(&f), "{eff:?}");
        }
    }

    #[test]
    fn phase_accounting_splits_blocked_time() {
        let w = two_rank_world();
        let cp = critical_path(&w);
        let eff = efficiency(&w, &cp);
        let recv = eff.phases.iter().find(|p| p.name == "r1.recv").unwrap();
        // Phase spanned 1.5 s on rank 1, of which 1.3 s was blocked.
        assert!((recv.max_total_s - 1.5).abs() < 1e-12);
        assert!((recv.max_busy_s - 0.2).abs() < 1e-12);
        for p in &eff.phases {
            let product = p.load_balance * p.comm_efficiency;
            assert!((product - p.parallel_efficiency).abs() < 1e-12, "{p:?}");
            assert!(p.parallel_efficiency >= 0.0 && p.parallel_efficiency <= 1.0);
        }
    }

    #[test]
    fn report_renders_deterministically() {
        let w = two_rank_world();
        let a = analysis_report(&w);
        let b = analysis_report(&w);
        assert_eq!(a, b);
        assert!(a.starts_with("analysis v1\n"), "{a}");
        assert!(a.contains("cp wire:intra"), "{a}");
        assert!(a.contains("dominant intra"), "{a}");
        assert!(a.contains("phase r1.recv"), "{a}");
    }

    #[test]
    fn empty_world_is_benign() {
        let w = WorldTrace::from_ranks(vec![Recorder::new(0, 1).finish(0.0)]);
        let cp = critical_path(&w);
        assert_eq!(cp.total(), 0.0);
        let eff = efficiency(&w, &cp);
        assert_eq!(eff.parallel_efficiency, 1.0);
        let _ = analysis_report(&w);
    }
}
