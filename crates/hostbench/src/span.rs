//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! around the public call a stage replay makes into a layer (host
//! clock), or copied from the program's existing virtual-clock trace of
//! an observed run. They stay in memory until the traced pass ends and
//! are then written out as one file per workload. Spans *inside* the
//! program, on the host clock, are a later change (ROADMAP item 5a).

use crate::host::thread_cpu_s;
use crate::json::Value;
use crate::metrics::Clock;
use std::collections::BTreeMap;
use std::time::Instant;

/// `start`/`end` of a `Clock::Host` span are host wall seconds since
/// the recorder was created; of a `Clock::Virtual` span, seconds on the
/// modelled machine's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    pub name: String,
    pub rank: u32,
    pub clock: Clock,
    pub start: f64,
    pub end: f64,
}

/// Spans and counts of one workload's traced pass.
pub struct Recorder {
    pub workload: String,
    pub spans: Vec<Span>,
    /// Counts taken at the same boundaries as the spans.
    pub counts: BTreeMap<String, u64>,
    open: Vec<u32>,
    epoch: Instant,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            open: Vec::new(),
            epoch: Instant::now(),
        }
    }

    /// Run `f` inside a host-clock span named `name`, a child of
    /// whichever span is open.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            rank: 0,
            clock: Clock::Host,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// [`Recorder::scope`], also returning the CPU-seconds the calling
    /// thread spent inside: the timer of single-threaded stage replays.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        self.scope(name, |rec| {
            let t0 = thread_cpu_s();
            let out = f(rec);
            (out, thread_cpu_s() - t0)
        })
    }

    pub fn count(&mut self, name: &str, delta: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Copy the program's virtual-clock spans of an observed run under
    /// the open host span. `obs` records nesting as a depth per rank;
    /// the parent of a span is the last shallower span before it.
    pub fn adopt_world_trace(&mut self, trace: &obs::WorldTrace) {
        let root = self.open.last().copied();
        for r in &trace.ranks {
            // obs sorts a rank's spans by start time, so ancestors come
            // first; `stack[d]` is the latest span seen at depth `d`.
            let mut stack: Vec<u32> = Vec::new();
            for s in &r.spans {
                let id = self.spans.len() as u32;
                let depth = s.depth as usize;
                stack.truncate(depth);
                self.spans.push(Span {
                    id,
                    parent: stack.last().copied().or(root),
                    name: s.name.to_string(),
                    rank: r.rank as u32,
                    clock: Clock::Virtual,
                    start: s.t0,
                    end: s.t1,
                });
                stack.push(id);
            }
        }
    }

    /// Self time per span name and clock, summed over spans.
    pub fn self_times(&self) -> BTreeMap<(Clock, String), f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry((s.clock, s.name.clone())).or_insert(0.0) += own;
        }
        out
    }

    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("id", Value::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("name", Value::Str(s.name.clone())),
                    ("workload", Value::Str(self.workload.clone())),
                    ("rank", Value::Num(s.rank as f64)),
                    ("clock", Value::Str(s.clock.name().to_string())),
                    ("start", Value::Num(s.start)),
                    ("end", Value::Num(s.end)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v as f64)));
        Value::obj([
            ("workload", Value::Str(self.workload.clone())),
            ("counts", Value::obj(counts)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (ranks of a
/// world run concurrently) and may stick out of the parent (a clock
/// read on the far side of a call), so the children are clipped to the
/// parent and merged before subtracting. Children on another clock
/// than the parent cover none of it. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            if parent.clock == s.clock {
                let lo = s.start.max(parent.start);
                let hi = s.end.min(parent.end);
                if hi > lo {
                    children[p as usize].push((lo, hi));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            rank: 0,
            clock: Clock::Host,
            start,
            end,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = [
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 7.0),
            span(2, Some(1), 2.0, 4.0),
        ];
        assert_eq!(self_times(&spans), vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let spans = [
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 5.0),
            span(2, Some(0), 3.0, 8.0),
            span(3, Some(0), 4.0, 4.5),
        ];
        // Union of [1,5], [3,8], [4,4.5] is [1,8].
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_to_its_clock() {
        let mut spans = vec![
            span(0, None, 2.0, 6.0),
            span(1, Some(0), 0.0, 3.0),
            span(2, Some(0), 5.0, 9.0),
            span(3, Some(0), 2.5, 5.5),
        ];
        assert_eq!(self_times(&spans)[0], 0.0);
        spans[3].clock = Clock::Virtual;
        // Only [2,3] and [5,6] are covered now.
        assert_eq!(self_times(&spans)[0], 2.0);
        assert_eq!(self_times(&spans)[3], 3.0);
    }

    #[test]
    fn scopes_nest_and_land_in_the_file() {
        let mut rec = Recorder::new("w");
        let v = rec.scope("outer", |rec| {
            rec.count("things", 2);
            rec.scope("inner", |rec| {
                rec.count("things", 3);
                7
            })
        });
        assert_eq!(v, 7);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[0].parent, None);
        assert!(rec.spans[0].end >= rec.spans[1].end);
        assert!(rec.spans[1].start >= rec.spans[0].start);
        assert_eq!(rec.counts["things"], 5);
        let json = rec.to_json();
        let spans = json.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        for key in [
            "id", "parent", "name", "workload", "rank", "clock", "start", "end",
        ] {
            assert!(spans[1].get(key).is_some(), "{key}");
        }
        assert_eq!(spans[1].get("clock").and_then(Value::as_str), Some("host"));
    }
}
