//! Virtual-time observability for the simulated cluster.
//!
//! The paper's contribution is *measurement*: §3 characterizes the machine
//! with STREAM/NPB/NetPIPE/Linpack and Fig 2 explains the fabric by its
//! contention curves. This crate is the instrumentation layer that makes
//! the reproduction measurable the same way — every quantity is keyed to
//! the **virtual clock** of the `msg` world, never to wall time, so traces
//! from a deterministic program are themselves deterministic and can be
//! used as golden regression artifacts.
//!
//! Pieces:
//!
//! * [`Recorder`] — one per rank of a traced world: a bounded span ring
//!   buffer, a metrics [`Registry`] (counters / gauges / fixed-layout
//!   histograms), and O(1) hot-path accumulators for per-link wire bytes.
//!   An untraced world has no recorder, and each event costs it one
//!   branch on `None`.
//! * [`RankTrace`] / [`WorldTrace`] — immutable snapshots extracted at the
//!   end of a run; the world merge is sorted by `(virtual time, rank,
//!   sequence)` and is what the exporters consume.
//! * [`export`] — Chrome `trace_event` JSON (load in `chrome://tracing`
//!   or Perfetto), a plain-text Gantt, and a structural summary used by
//!   the golden-trace tests.
//! * [`timeline`] — the time-resolved telemetry plane: windowed
//!   virtual-time series per rank (counter deltas, per-link-class wire
//!   traffic, phase occupancy, histogram window deltas, gauge levels),
//!   merged into a [`WorldTimeline`] and exported as CSV / JSON / text
//!   sparklines.
//! * [`diff`] — structural-summary comparison: names the top regressed
//!   `phase × link-class` segments between two runs.
//!
//! Every container that reaches an exporter iterates in a sorted order
//! (`BTreeMap`, explicitly sorted vectors), so equal traces export to
//! byte-identical text.

pub mod analysis;
pub mod diff;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod timeline;

pub use analysis::{
    analysis_report, critical_path, efficiency, phase_efficiency, CriticalPath, Efficiency,
    PhaseEff, SegKind, Segment,
};
pub use diff::{diff_summaries, parse_summary, render_diff, DiffEntry, SummaryDiff};
pub use export::{chrome_trace_json, gantt, schedule_digest, schedule_summary, structural_summary};
pub use metrics::{Histogram, Registry, FRACTION_BOUNDS, SIZE_BOUNDS_B, TIME_BOUNDS_S};
pub use recorder::{LinkClass, RankTrace, Recorder, RecvRec, SendRec, Span, WorldTrace};
pub use timeline::{
    sparkline, timeline_csv, timeline_json, timeline_summary, RankTimeline, TimelineWindow,
    WorldTimeline,
};
