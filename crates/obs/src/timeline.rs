//! Time-resolved telemetry: windowed virtual-time series per rank.
//!
//! The end-of-run aggregates in [`crate::recorder::RankTrace`] say *that*
//! a run spent 50% of its horizon on the wire; the timeline says *when*.
//! The recorder, when armed with
//! [`Recorder::enable_timeline`](crate::Recorder::enable_timeline), slices
//! its virtual timeline into fixed windows on an absolute grid (window
//! `i` covers `[i·w, (i+1)·w)`) and seals one [`TimelineWindow`] per
//! window as the clock crosses each boundary:
//!
//! * **counter deltas** — everything added to the registry during the
//!   window, including the transport/health/backpressure counters the
//!   `msg` layer syncs in at boundaries;
//! * **gauge levels** — the value each gauge held when the window closed
//!   (`vt.compute_s` / `vt.wait_s` are cumulative, so consecutive levels
//!   differenced give per-window compute/wait);
//! * **histogram window deltas** — bucket-wise differences of cumulative
//!   snapshots ([`Histogram::subtract`]), covering both registry
//!   histograms (e.g. `query.latency_s`) and the hot-path accumulators
//!   (`msg.bytes`, `msg.wait_s`, `node.occupancy`);
//! * **per-link-class wire traffic** — bytes/messages put on the wire
//!   toward each [`LinkClass`] during the window;
//! * **span occupancy per phase** — virtual seconds each depth-0 span
//!   (the program's phases: `chaos.force`, `hot.walk`, `sph.density`,
//!   `query.merge`, …) was open inside the window.
//!
//! Everything is keyed to the virtual clock, so a deterministic program
//! yields a byte-deterministic timeline; [`WorldTimeline`] merges ranks
//! on the shared absolute grid exactly like [`WorldTrace`] merges spans,
//! and the exporters ([`timeline_csv`], [`timeline_json`], [`sparkline`],
//! [`timeline_summary`]) iterate only sorted containers.
//!
//! Cost model: arming the timeline adds one `f64` compare per recorded
//! event; all real work happens at window boundaries (a registry snapshot
//! diff, O(metrics) with tens of metrics). Choose `window_s` so the run
//! spans tens-to-thousands of windows, not millions. With the timeline
//! disarmed the recorder is unchanged, and with no recorder installed
//! (an untraced world) nothing here runs at all.
//!
//! Attribution granularity: events are stamped with the virtual time at
//! which the recorder *learns* of them. A modeled compute interval or a
//! transport counter synced at the next boundary lands in the window
//! containing its completion, not spread across the windows it occupied —
//! deterministic, and at most one window of skew.

use crate::metrics::{Histogram, Registry};
use crate::recorder::{LinkClass, WorldTrace};
use std::collections::BTreeMap;
use std::fmt::Write;

/// One sealed window of one rank's timeline. Empty maps and zero arrays
/// mean "nothing happened here" — windows tile the rank's recorded
/// horizon contiguously, quiet stretches included.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelineWindow {
    /// Absolute grid index: the window covers `[index·w, (index+1)·w)`.
    pub index: u64,
    /// Start of the covered interval (grid edge, or the recording start
    /// for the first window after a restart).
    pub t0: f64,
    /// End of the covered interval (grid edge, or the recording end for
    /// the final partial window).
    pub t1: f64,
    /// Counter increments within the window (zero deltas are absent).
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels at window close.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram window deltas (empty deltas are absent).
    pub hists: BTreeMap<String, Histogram>,
    /// Wire bytes sent during the window, by [`LinkClass::index`].
    pub wire_bytes: [u64; 4],
    /// Messages sent during the window, by [`LinkClass::index`].
    pub wire_msgs: [u64; 4],
    /// Virtual seconds each depth-0 span was open inside the window.
    pub phase_busy: BTreeMap<&'static str, f64>,
}

impl TimelineWindow {
    /// Fold another rank's same-index window into this one: counters,
    /// hists, wire traffic and phase occupancy add; gauges take the max
    /// (same convention as [`Registry::merge`]); the interval unions.
    fn absorb(&mut self, other: &TimelineWindow) {
        debug_assert_eq!(self.index, other.index);
        self.t0 = self.t0.min(other.t0);
        self.t1 = self.t1.max(other.t1);
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges
                .entry(k.clone())
                .and_modify(|g| *g = g.max(v))
                .or_insert(v);
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.hists.insert(k.clone(), h.clone());
                }
            }
        }
        for i in 0..4 {
            self.wire_bytes[i] += other.wire_bytes[i];
            self.wire_msgs[i] += other.wire_msgs[i];
        }
        for (name, busy) in &other.phase_busy {
            *self.phase_busy.entry(name).or_insert(0.0) += busy;
        }
    }
}

/// One rank's sealed timeline: windows in grid order, tiling
/// `[start, end]` of the rank's recording.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTimeline {
    pub rank: usize,
    pub window_s: f64,
    pub windows: Vec<TimelineWindow>,
}

/// All ranks' timelines on one shared absolute grid.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldTimeline {
    pub window_s: f64,
    /// In rank order; a rank that recorded no timeline is absent, so
    /// [`WorldTimeline::from_trace`] returns `None` unless every rank
    /// armed the same grid.
    pub ranks: Vec<RankTimeline>,
}

impl WorldTimeline {
    /// Assemble the world timeline from a merged trace. `None` unless
    /// every rank carries a timeline; panics if ranks disagree on the
    /// window width (they share one config by construction).
    pub fn from_trace(w: &WorldTrace) -> Option<WorldTimeline> {
        let mut ranks = Vec::with_capacity(w.ranks.len());
        for r in &w.ranks {
            ranks.push(r.timeline.clone()?);
        }
        let window_s = ranks.first()?.window_s;
        for r in &ranks {
            assert_eq!(
                r.window_s.to_bits(),
                window_s.to_bits(),
                "ranks recorded timelines on different grids"
            );
        }
        Some(WorldTimeline { window_s, ranks })
    }

    /// World-merged series: one window per populated grid index, ranks
    /// folded together (`TimelineWindow::absorb`), in grid order.
    pub fn merged(&self) -> Vec<TimelineWindow> {
        let mut grid: BTreeMap<u64, TimelineWindow> = BTreeMap::new();
        for r in &self.ranks {
            for win in &r.windows {
                match grid.get_mut(&win.index) {
                    Some(existing) => existing.absorb(win),
                    None => {
                        grid.insert(win.index, win.clone());
                    }
                }
            }
        }
        grid.into_values().collect()
    }

    /// Structural invariants tying the timeline to its trace:
    ///
    /// * per rank, windows are in strictly increasing grid order and tile
    ///   `[start, end]` contiguously (`t1[i] == t0[i+1]`, first `t0` at
    ///   the recording start, last `t1` at the recording end);
    /// * every window's interval lies inside its grid cell;
    /// * per rank, counter deltas sum to the final registry counters and
    ///   histogram deltas merge back to the final registry histograms
    ///   (`node.flops` excepted: it folds from an `f64` accumulator at
    ///   extraction, after the last window seals);
    /// * per rank, wire bytes/messages sum to the per-class totals.
    pub fn check_invariants(&self, w: &WorldTrace) -> Result<(), String> {
        if self.window_s <= 0.0 {
            return Err("non-positive window width".into());
        }
        for tl in &self.ranks {
            let r = w
                .ranks
                .iter()
                .find(|r| r.rank == tl.rank)
                .ok_or_else(|| format!("timeline for rank {} has no trace", tl.rank))?;
            let mut prev: Option<&TimelineWindow> = None;
            for win in &tl.windows {
                let cell0 = win.index as f64 * self.window_s;
                let cell1 = (win.index + 1) as f64 * self.window_s;
                if win.t0 < cell0 - 1e-12 || win.t1 > cell1 + 1e-12 {
                    return Err(format!(
                        "rank {}: window {} interval [{}, {}] escapes its grid cell [{cell0}, {cell1}]",
                        tl.rank, win.index, win.t0, win.t1
                    ));
                }
                if win.t1 < win.t0 {
                    return Err(format!(
                        "rank {}: window {} ends before it starts",
                        tl.rank, win.index
                    ));
                }
                match prev {
                    None => {
                        if (win.t0 - r.start).abs() > 1e-12 {
                            return Err(format!(
                                "rank {}: first window starts at {} but recording at {}",
                                tl.rank, win.t0, r.start
                            ));
                        }
                    }
                    Some(p) => {
                        if win.index <= p.index {
                            return Err(format!("rank {}: window order broken", tl.rank));
                        }
                        if (win.t0 - p.t1).abs() > 1e-12 {
                            return Err(format!(
                                "rank {}: gap between windows {} and {}",
                                tl.rank, p.index, win.index
                            ));
                        }
                    }
                }
                prev = Some(win);
            }
            let last_t1 = prev.map_or(r.start, |p| p.t1);
            if (last_t1 - r.end).abs() > 1e-12 {
                return Err(format!(
                    "rank {}: windows tile to {} but recording ends at {}",
                    tl.rank, last_t1, r.end
                ));
            }
            // Conservation: window deltas fold back to the final totals.
            let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
            let mut hists: BTreeMap<&str, Histogram> = BTreeMap::new();
            let mut wire = ([0u64; 4], [0u64; 4]);
            for win in &tl.windows {
                for (k, v) in &win.counters {
                    *counters.entry(k.as_str()).or_insert(0) += v;
                }
                for (k, h) in &win.hists {
                    match hists.get_mut(k.as_str()) {
                        Some(mine) => mine.merge(h),
                        None => {
                            hists.insert(k.as_str(), h.clone());
                        }
                    }
                }
                for i in 0..4 {
                    wire.0[i] += win.wire_bytes[i];
                    wire.1[i] += win.wire_msgs[i];
                }
            }
            for (name, total) in r.metrics.counters() {
                if name == "node.flops" {
                    continue;
                }
                let got = counters.get(name).copied().unwrap_or(0);
                if got != total {
                    return Err(format!(
                        "rank {}: counter {name} window deltas sum to {got}, trace has {total}",
                        tl.rank
                    ));
                }
            }
            for (name, h) in r.metrics.histograms() {
                let got = hists.get(name).map_or(0, Histogram::count);
                if got != h.count() {
                    return Err(format!(
                        "rank {}: histogram {name} window deltas count {got}, trace has {}",
                        tl.rank,
                        h.count()
                    ));
                }
            }
            if wire.0 != r.class_bytes || wire.1 != r.class_msgs {
                return Err(format!(
                    "rank {}: per-class wire deltas {:?}/{:?} do not sum to totals {:?}/{:?}",
                    tl.rank, wire.0, wire.1, r.class_bytes, r.class_msgs
                ));
            }
        }
        Ok(())
    }
}

/// Live per-rank windowing state, owned by the recorder while recording.
/// Sealed windows accumulate in `windows`; baselines are the cumulative
/// snapshots at the last seal.
#[derive(Debug, Clone)]
pub(crate) struct TimelineBuilder {
    window_s: f64,
    /// Grid index of the current (unsealed) window.
    cur: u64,
    /// Virtual time the current window's coverage starts (the recording
    /// start for the first window, the previous boundary after).
    open_t0: f64,
    /// Cached `(cur + 1) · window_s`, the hot-path compare.
    next_edge: f64,
    base_counters: BTreeMap<String, u64>,
    base_hists: BTreeMap<String, Histogram>,
    base_wire_bytes: [u64; 4],
    base_wire_msgs: [u64; 4],
    /// Open depth-0 span: name and the time tracking last charged it.
    phase: Option<(&'static str, f64)>,
    /// Phase occupancy accrued in the current window.
    phase_busy: BTreeMap<&'static str, f64>,
    windows: Vec<TimelineWindow>,
}

impl TimelineBuilder {
    pub(crate) fn new(window_s: f64, start: f64) -> Self {
        assert!(
            window_s.is_finite() && window_s > 0.0,
            "timeline window width must be positive"
        );
        assert!(start >= 0.0, "recording cannot start before t=0");
        let cur = (start / window_s) as u64;
        TimelineBuilder {
            window_s,
            cur,
            open_t0: start,
            next_edge: (cur + 1) as f64 * window_s,
            base_counters: BTreeMap::new(),
            base_hists: BTreeMap::new(),
            base_wire_bytes: [0; 4],
            base_wire_msgs: [0; 4],
            phase: None,
            phase_busy: BTreeMap::new(),
            windows: Vec::new(),
        }
    }

    /// The hot-path check: has `t` crossed into a later window?
    #[inline]
    pub(crate) fn due(&self, t: f64) -> bool {
        t >= self.next_edge
    }

    pub(crate) fn on_phase_enter(&mut self, name: &'static str, t: f64) {
        self.phase = Some((name, t));
    }

    pub(crate) fn on_phase_exit(&mut self, t: f64) {
        if let Some((name, since)) = self.phase.take() {
            if t > since {
                *self.phase_busy.entry(name).or_insert(0.0) += t - since;
            }
        }
    }

    /// Seal every window the clock has passed. `metrics` is the live
    /// registry; `hot` is the recorder's hot-path accumulators under
    /// their fold names; `wire` the cumulative per-class traffic.
    pub(crate) fn roll_to(
        &mut self,
        t: f64,
        metrics: &Registry,
        hot: &[(&str, &Histogram)],
        wire: (&[u64; 4], &[u64; 4]),
    ) {
        // Seal full windows strictly before the one containing `t`.
        while self.due(t) {
            let edge = self.next_edge;
            self.seal(edge, metrics, hot, wire);
            self.cur += 1;
            self.open_t0 = edge;
            self.next_edge = (self.cur + 1) as f64 * self.window_s;
        }
    }

    /// Seal the current window with coverage ending at `t1`.
    fn seal(
        &mut self,
        t1: f64,
        metrics: &Registry,
        hot: &[(&str, &Histogram)],
        wire: (&[u64; 4], &[u64; 4]),
    ) {
        let mut win = TimelineWindow {
            index: self.cur,
            t0: self.open_t0,
            t1,
            ..Default::default()
        };
        for (name, total) in metrics.counters() {
            let base = self.base_counters.get(name).copied().unwrap_or(0);
            let delta = total - base;
            if delta > 0 {
                win.counters.insert(name.to_string(), delta);
            }
            if total != base {
                self.base_counters.insert(name.to_string(), total);
            }
        }
        for (name, v) in metrics.gauges() {
            win.gauges.insert(name.to_string(), v);
        }
        let mut hist_delta =
            |name: &str, h: &Histogram, base_hists: &mut BTreeMap<String, Histogram>| {
                let delta = match base_hists.get(name) {
                    Some(base) => h.subtract(base),
                    None => h.clone(),
                };
                if delta.count() > 0 {
                    base_hists.insert(name.to_string(), h.clone());
                    match win.hists.get_mut(name) {
                        Some(mine) => mine.merge(&delta),
                        None => {
                            win.hists.insert(name.to_string(), delta);
                        }
                    }
                }
            };
        for (name, h) in metrics.histograms() {
            hist_delta(name, h, &mut self.base_hists);
        }
        for &(name, h) in hot {
            hist_delta(name, h, &mut self.base_hists);
        }
        for i in 0..4 {
            win.wire_bytes[i] = wire.0[i] - self.base_wire_bytes[i];
            win.wire_msgs[i] = wire.1[i] - self.base_wire_msgs[i];
        }
        self.base_wire_bytes = *wire.0;
        self.base_wire_msgs = *wire.1;
        // Charge the open phase up to the seal point and roll its clock.
        if let Some((name, since)) = &mut self.phase {
            if t1 > *since {
                *self.phase_busy.entry(name).or_insert(0.0) += t1 - *since;
                *since = t1;
            }
        }
        win.phase_busy = std::mem::take(&mut self.phase_busy);
        self.windows.push(win);
    }

    /// Seal the final (possibly partial) window and extract the timeline.
    pub(crate) fn finish(
        mut self,
        rank: usize,
        t_end: f64,
        metrics: &Registry,
        hot: &[(&str, &Histogram)],
        wire: (&[u64; 4], &[u64; 4]),
    ) -> RankTimeline {
        self.roll_to(t_end, metrics, hot, wire);
        if t_end > self.open_t0 || self.windows.is_empty() {
            self.seal(t_end.max(self.open_t0), metrics, hot, wire);
        }
        RankTimeline {
            rank,
            window_s: self.window_s,
            windows: self.windows,
        }
    }
}

/// CSV export: one row per `(rank, window)`, columns the sorted union of
/// everything any window recorded. Byte-deterministic for equal
/// timelines (sorted iteration, shortest-roundtrip float formatting).
pub fn timeline_csv(tl: &WorldTimeline) -> String {
    let mut phases: Vec<&'static str> = Vec::new();
    let mut counters: Vec<String> = Vec::new();
    let mut gauges: Vec<String> = Vec::new();
    let mut hists: Vec<String> = Vec::new();
    for r in &tl.ranks {
        for w in &r.windows {
            for name in w.phase_busy.keys() {
                if !phases.contains(name) {
                    phases.push(name);
                }
            }
            for name in w.counters.keys() {
                if !counters.iter().any(|c| c == name) {
                    counters.push(name.clone());
                }
            }
            for name in w.gauges.keys() {
                if !gauges.iter().any(|g| g == name) {
                    gauges.push(name.clone());
                }
            }
            for name in w.hists.keys() {
                if !hists.iter().any(|h| h == name) {
                    hists.push(name.clone());
                }
            }
        }
    }
    phases.sort_unstable();
    counters.sort_unstable();
    gauges.sort_unstable();
    hists.sort_unstable();

    let mut out = String::new();
    out.push_str("rank,window,t0,t1");
    for c in LinkClass::ALL {
        let _ = write!(out, ",wire_{}_bytes,wire_{}_msgs", c.name(), c.name());
    }
    for p in &phases {
        let _ = write!(out, ",phase:{p}");
    }
    for c in &counters {
        let _ = write!(out, ",{c}");
    }
    for g in &gauges {
        let _ = write!(out, ",{g}");
    }
    for h in &hists {
        let _ = write!(out, ",{h}.count,{h}.p50,{h}.p95,{h}.p99");
    }
    out.push('\n');
    for r in &tl.ranks {
        for w in &r.windows {
            let _ = write!(out, "{},{},{:?},{:?}", r.rank, w.index, w.t0, w.t1);
            for c in LinkClass::ALL {
                let _ = write!(
                    out,
                    ",{},{}",
                    w.wire_bytes[c.index()],
                    w.wire_msgs[c.index()]
                );
            }
            for p in &phases {
                let _ = write!(out, ",{:?}", w.phase_busy.get(p).copied().unwrap_or(0.0));
            }
            for c in &counters {
                let _ = write!(out, ",{}", w.counters.get(c).copied().unwrap_or(0));
            }
            for g in &gauges {
                let _ = write!(out, ",{:?}", w.gauges.get(g).copied().unwrap_or(0.0));
            }
            for hname in &hists {
                match w.hists.get(hname) {
                    Some(h) => {
                        let _ = write!(
                            out,
                            ",{},{:?},{:?},{:?}",
                            h.count(),
                            h.p50(),
                            h.p95(),
                            h.p99()
                        );
                    }
                    None => out.push_str(",0,0.0,0.0,0.0"),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// JSON export with full bucket detail, hand-rolled (sorted keys, `{:?}`
/// floats) so equal timelines serialize to identical bytes.
pub fn timeline_json(tl: &WorldTimeline) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"window_s\":{:?},\"ranks\":[", tl.window_s);
    for (ri, r) in tl.ranks.iter().enumerate() {
        if ri > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"rank\":{},\"windows\":[", r.rank);
        for (wi, w) in r.windows.iter().enumerate() {
            if wi > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"index\":{},\"t0\":{:?},\"t1\":{:?}",
                w.index, w.t0, w.t1
            );
            let _ = write!(out, ",\"wire_bytes\":[");
            for (i, b) in w.wire_bytes.iter().enumerate() {
                let _ = write!(out, "{}{b}", if i > 0 { "," } else { "" });
            }
            let _ = write!(out, "],\"wire_msgs\":[");
            for (i, m) in w.wire_msgs.iter().enumerate() {
                let _ = write!(out, "{}{m}", if i > 0 { "," } else { "" });
            }
            out.push(']');
            if !w.phase_busy.is_empty() {
                out.push_str(",\"phases\":{");
                for (i, (name, busy)) in w.phase_busy.iter().enumerate() {
                    let _ = write!(out, "{}\"{name}\":{busy:?}", if i > 0 { "," } else { "" });
                }
                out.push('}');
            }
            if !w.counters.is_empty() {
                out.push_str(",\"counters\":{");
                for (i, (name, v)) in w.counters.iter().enumerate() {
                    let _ = write!(out, "{}\"{name}\":{v}", if i > 0 { "," } else { "" });
                }
                out.push('}');
            }
            if !w.gauges.is_empty() {
                out.push_str(",\"gauges\":{");
                for (i, (name, v)) in w.gauges.iter().enumerate() {
                    let _ = write!(out, "{}\"{name}\":{v:?}", if i > 0 { "," } else { "" });
                }
                out.push('}');
            }
            if !w.hists.is_empty() {
                out.push_str(",\"hists\":{");
                for (i, (name, h)) in w.hists.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}\"{name}\":{{\"count\":{},\"sum\":{:?},\"buckets\":[",
                        if i > 0 { "," } else { "" },
                        h.count(),
                        h.sum()
                    );
                    for (j, b) in h.buckets().iter().enumerate() {
                        let _ = write!(out, "{}{b}", if j > 0 { "," } else { "" });
                    }
                    out.push_str("]}");
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

const SPARK_LEVELS: &[u8] = b" .:-=+*#%@";

fn spark_row(vals: &[f64]) -> (String, f64) {
    let max = vals.iter().fold(0.0f64, |a, &b| a.max(b));
    let mut row = String::with_capacity(vals.len());
    for &v in vals {
        let lvl = if max <= 0.0 || v <= 0.0 {
            0
        } else {
            let frac = v / max;
            1 + ((frac * (SPARK_LEVELS.len() - 2) as f64).round() as usize)
                .min(SPARK_LEVELS.len() - 2)
        };
        row.push(SPARK_LEVELS[lvl] as char);
    }
    (row, max)
}

/// Text sparkline exhibit over the world-merged timeline: one row per
/// series (per-class wire bytes, per-phase occupancy, counters), each
/// cell one window scaled to the series' own maximum. ASCII only, so it
/// renders anywhere a CI log does.
pub fn sparkline(tl: &WorldTimeline) -> String {
    let merged = tl.merged();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# timeline sparkline  window_s {:?}  windows {}  (each cell one window, scaled per row)",
        tl.window_s,
        merged.len()
    );
    if merged.is_empty() {
        return out;
    }
    let mut rows: Vec<(String, Vec<f64>, &'static str)> = Vec::new();
    for c in LinkClass::ALL {
        let vals: Vec<f64> = merged
            .iter()
            .map(|w| w.wire_bytes[c.index()] as f64)
            .collect();
        if vals.iter().any(|&v| v > 0.0) {
            rows.push((format!("wire:{}", c.name()), vals, "B"));
        }
    }
    let mut phase_names: Vec<&'static str> = Vec::new();
    let mut counter_names: Vec<String> = Vec::new();
    for w in &merged {
        for name in w.phase_busy.keys() {
            if !phase_names.contains(name) {
                phase_names.push(name);
            }
        }
        for name in w.counters.keys() {
            if !counter_names.iter().any(|c| c == name) {
                counter_names.push(name.clone());
            }
        }
    }
    phase_names.sort_unstable();
    counter_names.sort_unstable();
    for name in phase_names {
        let vals: Vec<f64> = merged
            .iter()
            .map(|w| w.phase_busy.get(name).copied().unwrap_or(0.0))
            .collect();
        rows.push((format!("phase:{name}"), vals, "s"));
    }
    for name in &counter_names {
        let vals: Vec<f64> = merged
            .iter()
            .map(|w| w.counters.get(name).copied().unwrap_or(0) as f64)
            .collect();
        rows.push((name.clone(), vals, ""));
    }
    let label_w = rows.iter().map(|(l, _, _)| l.len()).max().unwrap_or(0);
    for (label, vals, unit) in rows {
        let (row, max) = spark_row(&vals);
        let _ = writeln!(out, "{label:label_w$} |{row}| max {max:?}{unit}");
    }
    out
}

/// The `timeline v1` block appended to the structural summary (and hence
/// the golden snapshot): world-merged windows, zero entries omitted.
pub fn timeline_summary(tl: &WorldTimeline) -> String {
    let mut out = String::new();
    let merged = tl.merged();
    let _ = writeln!(out, "timeline v1");
    let _ = writeln!(
        out,
        "window_s {:?} windows {} ranks {}",
        tl.window_s,
        merged.len(),
        tl.ranks.len()
    );
    for w in &merged {
        let _ = write!(out, "win {} t0 {:?} t1 {:?} wire", w.index, w.t0, w.t1);
        for c in LinkClass::ALL {
            let _ = write!(out, " {}", w.wire_bytes[c.index()]);
        }
        let _ = writeln!(out, " msgs {}", w.wire_msgs.iter().sum::<u64>());
        for (name, busy) in &w.phase_busy {
            let _ = writeln!(out, "  phase {name} {busy:?}");
        }
        for (name, v) in &w.counters {
            let _ = writeln!(out, "  counter {name} {v}");
        }
        for (name, h) in &w.hists {
            let _ = writeln!(out, "  hist {name} count {} sum {:?}", h.count(), h.sum());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn two_rank_world() -> WorldTrace {
        let mut traces = Vec::new();
        for rank in 0..2usize {
            let mut r = Recorder::new(rank, 2);
            r.enable_timeline(1.0);
            r.enter(0.2, "step");
            r.metrics.add("evt", 1);
            r.on_msg_send(0.5, 1 - rank as u32, 0, 128, 0.0, LinkClass::Intra);
            r.on_send(1 - rank, 128);
            r.metrics.add("evt", 2);
            r.exit(2.5, "step");
            r.on_msg_send(2.75, 1 - rank as u32, 1, 256, 0.0, LinkClass::Trunk);
            r.on_send(1 - rank, 256);
            r.metrics.observe("lat_s", 1e-3);
            traces.push(r.finish(3.0));
        }
        WorldTrace::from_ranks(traces)
    }

    #[test]
    fn windows_tile_and_conserve() {
        let w = two_rank_world();
        let tl = WorldTimeline::from_trace(&w).expect("timeline armed");
        tl.check_invariants(&w).unwrap();
        let r0 = &tl.ranks[0];
        assert_eq!(r0.windows.len(), 3, "{r0:?}");
        assert_eq!(r0.windows[0].t0, 0.0);
        assert_eq!(r0.windows[0].t1, 1.0);
        assert_eq!(r0.windows[2].t1, 3.0);
        // Window 0: the 128 B intra send, 3 counter increments, and the
        // step phase open from 0.2.
        assert_eq!(r0.windows[0].wire_bytes[LinkClass::Intra.index()], 128);
        assert_eq!(r0.windows[0].counters.get("evt"), Some(&3));
        assert!((r0.windows[0].phase_busy["step"] - 0.8).abs() < 1e-12);
        // Window 1: phase covers the whole window, no traffic.
        assert_eq!(r0.windows[1].wire_bytes, [0; 4]);
        assert!((r0.windows[1].phase_busy["step"] - 1.0).abs() < 1e-12);
        // Window 2: phase closes at 2.5, trunk send at 2.75, histogram
        // delta from the registry observation.
        assert_eq!(r0.windows[2].wire_bytes[LinkClass::Trunk.index()], 256);
        assert!((r0.windows[2].phase_busy["step"] - 0.5).abs() < 1e-12);
        assert_eq!(r0.windows[2].hists["lat_s"].count(), 1);
        // msg.bytes hot histogram deltas: one observation per window with
        // a send.
        assert_eq!(r0.windows[0].hists["msg.bytes"].count(), 1);
        assert_eq!(r0.windows[2].hists["msg.bytes"].count(), 1);
    }

    #[test]
    fn merged_sums_ranks_on_the_grid() {
        let w = two_rank_world();
        let tl = WorldTimeline::from_trace(&w).unwrap();
        let merged = tl.merged();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].wire_bytes[LinkClass::Intra.index()], 256);
        assert_eq!(merged[0].counters["evt"], 6);
        assert!((merged[1].phase_busy["step"] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exports_are_deterministic_and_cover_series() {
        let a = two_rank_world();
        let b = two_rank_world();
        let ta = WorldTimeline::from_trace(&a).unwrap();
        let tb = WorldTimeline::from_trace(&b).unwrap();
        assert_eq!(timeline_csv(&ta), timeline_csv(&tb));
        assert_eq!(timeline_json(&ta), timeline_json(&tb));
        assert_eq!(sparkline(&ta), sparkline(&tb));
        assert_eq!(timeline_summary(&ta), timeline_summary(&tb));
        let csv = timeline_csv(&ta);
        assert!(csv.starts_with("rank,window,t0,t1"), "{csv}");
        assert!(csv.contains("phase:step"), "{csv}");
        assert!(csv.contains("wire_trunk_bytes"), "{csv}");
        assert_eq!(csv.lines().count(), 1 + 6, "{csv}");
        let spark = sparkline(&ta);
        assert!(spark.contains("wire:intra"), "{spark}");
        assert!(spark.contains("phase:step"), "{spark}");
        let json = timeline_json(&ta);
        let braces: i64 = json
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0);
    }

    #[test]
    fn restart_grid_starts_at_the_restore_clock() {
        let mut r = Recorder::new(0, 1);
        r.start_at(2.3);
        r.enable_timeline(1.0);
        r.metrics.add("evt", 5);
        let tr = r.finish(4.1);
        let tl = tr.timeline.as_ref().unwrap();
        assert_eq!(tl.windows[0].index, 2);
        assert_eq!(tl.windows[0].t0, 2.3);
        assert_eq!(tl.windows[0].t1, 3.0);
        assert_eq!(tl.windows.last().unwrap().t1, 4.1);
        let w = WorldTrace::from_ranks(vec![tr]);
        WorldTimeline::from_trace(&w)
            .unwrap()
            .check_invariants(&w)
            .unwrap();
    }

    #[test]
    fn empty_recording_yields_one_empty_window() {
        let mut r = Recorder::new(0, 1);
        r.enable_timeline(0.5);
        let tr = r.finish(0.0);
        let tl = tr.timeline.as_ref().unwrap();
        assert_eq!(tl.windows.len(), 1);
        assert_eq!(tl.windows[0].t0, 0.0);
        assert_eq!(tl.windows[0].t1, 0.0);
        let w = WorldTrace::from_ranks(vec![tr]);
        WorldTimeline::from_trace(&w)
            .unwrap()
            .check_invariants(&w)
            .unwrap();
    }

    #[test]
    fn unarmed_trace_has_no_timeline() {
        let w = WorldTrace::from_ranks(vec![Recorder::new(0, 1).finish(1.0)]);
        assert!(WorldTimeline::from_trace(&w).is_none());
    }
}
