#![forbid(unsafe_code)]
//! # beas-obs — tracing, profiling and metrics export for BEAS
//!
//! The observability layer every other BEAS crate reports through.  It sits
//! *below* `beas-common` in the dependency graph and depends only on `std`,
//! so any crate — including the quota tracker — can time itself through the
//! one sanctioned clock facade ([`clock`], enforced by beas-lint rule L009).
//!
//! Three pieces:
//!
//! * **[`TraceLevel`]** — a process-global knob ([`set_trace_level`] /
//!   [`trace_level`]) with three settings: `Off` (tracing code paths are
//!   no-ops), `Counters` (the default: span *presence*, no clock reads per
//!   operator), and `Timing` (per-operator inclusive
//!   elapsed times, read once per query by the executors).  Switching levels
//!   never changes query answers — only how much the trace records; the
//!   workspace pins this with a differential test.
//!
//! * **[`QueryTrace`]** — a per-submission span recorder with monotonic
//!   timestamps (nanoseconds since the trace origin).
//!
//! * **[`MetricsRegistry`]** — a point-in-time metric snapshot (counters,
//!   gauges, histograms with labels) that renders itself as structured JSON
//!   ([`MetricsRegistry::to_json`]) or Prometheus-style text
//!   ([`MetricsRegistry::to_prometheus`]) with no serialization dependency.
//!
//! ```
//! use beas_obs::{clock, OpTimer, TraceLevel};
//!
//! let timer = OpTimer::new(TraceLevel::Timing.timing());
//! let started = timer.begin(); // None when the level is Off/Counters
//! let _work: u64 = (0..100).sum();
//! let mut timer = timer;
//! timer.end(started);
//! assert!(timer.enabled());
//! let _ = clock::now(); // the one sanctioned monotonic-clock call site
//! ```

pub mod clock;
pub mod registry;
pub mod trace;

pub use clock::OpTimer;
pub use registry::{Metric, MetricValue, MetricsRegistry};
pub use trace::{next_trace_id, QueryTrace, SpanRecord};

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the tracing layer records.  Ordered: each level includes the
/// cheaper one below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Tracing code paths are no-ops: no spans are recorded.
    Off = 0,
    /// Spans are recorded without timestamps — cheap enough to leave on in
    /// production.  This is the default.
    #[default]
    Counters = 1,
    /// Everything in `Counters`, plus monotonic timestamps on spans and
    /// per-operator inclusive elapsed times in the executors.  Costs two
    /// clock reads per operator `next()` call.
    Timing = 2,
}

impl TraceLevel {
    /// Whether span presence is recorded.
    #[inline]
    pub fn counters(self) -> bool {
        self >= TraceLevel::Counters
    }

    /// Whether clocks are read for per-operator / per-span elapsed times.
    #[inline]
    pub fn timing(self) -> bool {
        self == TraceLevel::Timing
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => TraceLevel::Off,
            2 => TraceLevel::Timing,
            _ => TraceLevel::Counters,
        }
    }
}

impl std::fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceLevel::Off => "off",
            TraceLevel::Counters => "counters",
            TraceLevel::Timing => "timing",
        })
    }
}

/// The process-global trace level.  Relaxed ordering is deliberate: the
/// level is a sampling knob, not a synchronization point — an executor that
/// reads a stale value for one query records one query at the old level.
static TRACE_LEVEL: AtomicU8 = AtomicU8::new(TraceLevel::Counters as u8);

/// Read the process-global [`TraceLevel`].  Executors read this once per
/// query (not per row), so flipping the level mid-query affects only
/// subsequent queries.
#[inline]
pub fn trace_level() -> TraceLevel {
    TraceLevel::from_u8(TRACE_LEVEL.load(Ordering::Relaxed))
}

/// Set the process-global [`TraceLevel`].  Returns the previous level so
/// scoped overrides (e.g. `explain_analyze`) can restore it.
pub fn set_trace_level(level: TraceLevel) -> TraceLevel {
    TraceLevel::from_u8(TRACE_LEVEL.swap(level as u8, Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_level_ordering_and_predicates() {
        assert!(TraceLevel::Off < TraceLevel::Counters);
        assert!(TraceLevel::Counters < TraceLevel::Timing);
        assert!(!TraceLevel::Off.counters());
        assert!(!TraceLevel::Off.timing());
        assert!(TraceLevel::Counters.counters());
        assert!(!TraceLevel::Counters.timing());
        assert!(TraceLevel::Timing.counters());
        assert!(TraceLevel::Timing.timing());
    }

    #[test]
    fn trace_level_roundtrips_through_the_global() {
        let prev = set_trace_level(TraceLevel::Timing);
        assert_eq!(trace_level(), TraceLevel::Timing);
        let back = set_trace_level(prev);
        assert_eq!(back, TraceLevel::Timing);
        assert_eq!(trace_level(), prev);
    }

    #[test]
    fn trace_level_display_is_lowercase() {
        assert_eq!(TraceLevel::Off.to_string(), "off");
        assert_eq!(TraceLevel::Counters.to_string(), "counters");
        assert_eq!(TraceLevel::Timing.to_string(), "timing");
    }
}
