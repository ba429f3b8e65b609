//! Per-submission trace recording: spans with monotonic timestamps.
//!
//! A [`QueryTrace`] is owned by exactly one submission path (the session
//! executing the query), so span recording takes `&mut self` — no locks.

use crate::clock;
use crate::TraceLevel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Monotonically increasing process-wide trace-ID source.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh process-unique trace ID (monotonic, starts at 1).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// One closed span: a named phase of a submission with its start offset
/// (nanoseconds since the trace origin) and elapsed time.  Under
/// `TraceLevel::Counters` both are zero — the span records *that* the phase
/// ran, not how long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name, e.g. `"prepare"`, `"admit"`, `"execute"`.
    pub name: String,
    /// Nanoseconds from the trace origin to the span start (0 unless the
    /// trace was created at `TraceLevel::Timing`).
    pub start_ns: u64,
    /// Span duration (`Duration::ZERO` unless timing).
    pub elapsed: Duration,
}

/// A per-submission span recorder with monotonic timestamps.
///
/// Created at a fixed [`TraceLevel`] (usually the global one, captured once
/// at submission start so a mid-query knob flip can't tear the record).
/// At `Off` every method is a no-op and the trace stays empty.
#[derive(Debug)]
pub struct QueryTrace {
    trace_id: u64,
    level: TraceLevel,
    origin: Instant,
    spans: Vec<SpanRecord>,
}

impl QueryTrace {
    /// A fresh trace with a process-unique ID, recording at `level`.
    pub fn new(level: TraceLevel) -> Self {
        QueryTrace {
            trace_id: next_trace_id(),
            level,
            origin: clock::now(),
            spans: Vec::new(),
        }
    }

    /// This trace's process-unique ID.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The level this trace was created at.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Open a span: returns the start token to pass to
    /// [`end_span`](QueryTrace::end_span).  `None` (no clock read) unless
    /// the trace level is `Timing`.
    pub fn start_span(&self) -> Option<Instant> {
        if self.level.timing() {
            Some(clock::now())
        } else {
            None
        }
    }

    /// Close a span opened by [`start_span`](QueryTrace::start_span).
    /// Under `Counters` the span is recorded with zero times; under `Off`
    /// nothing is recorded.
    pub fn end_span(&mut self, name: impl Into<String>, started: Option<Instant>) {
        if !self.level.counters() {
            return;
        }
        let (start_ns, elapsed) = match started {
            Some(t) => (t.duration_since(self.origin).as_nanos() as u64, t.elapsed()),
            None => (0, Duration::ZERO),
        };
        self.spans.push(SpanRecord {
            name: name.into(),
            start_ns,
            elapsed,
        });
    }

    /// Closed spans in recording order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// A compact human-readable dump: one line per span.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "trace #{} (level={})", self.trace_id, self.level);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "  span  {:<12} +{}ns  {:?}",
                s.name, s.start_ns, s.elapsed
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_monotonic() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(b > a);
        let t1 = QueryTrace::new(TraceLevel::Counters);
        let t2 = QueryTrace::new(TraceLevel::Counters);
        assert!(t2.trace_id() > t1.trace_id());
    }

    #[test]
    fn off_trace_records_nothing() {
        let mut t = QueryTrace::new(TraceLevel::Off);
        let tok = t.start_span();
        assert!(tok.is_none());
        t.end_span("prepare", tok);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn counters_trace_records_presence_without_timestamps() {
        let mut t = QueryTrace::new(TraceLevel::Counters);
        let tok = t.start_span();
        assert!(tok.is_none(), "no clock reads below Timing");
        t.end_span("execute", tok);
        assert_eq!(
            t.spans(),
            &[SpanRecord {
                name: "execute".into(),
                start_ns: 0,
                elapsed: Duration::ZERO,
            }]
        );
    }

    #[test]
    fn timing_trace_stamps_monotonic_offsets() {
        let mut t = QueryTrace::new(TraceLevel::Timing);
        let first = t.start_span();
        assert!(first.is_some());
        t.end_span("prepare", first);
        let second = t.start_span();
        t.end_span("execute", second);
        // start_ns measures from the trace origin, so a span opened later
        // can't start before an earlier one.
        assert!(t.spans()[1].start_ns >= t.spans()[0].start_ns);
    }

    #[test]
    fn render_mentions_spans() {
        let mut t = QueryTrace::new(TraceLevel::Counters);
        t.end_span("admit", None);
        let text = t.render();
        assert!(text.contains("admit"));
    }
}
