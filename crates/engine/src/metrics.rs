//! Execution metrics.
//!
//! Both engines (the conventional baseline and the BEAS bounded executor)
//! report per-operator metrics in the same format so that the performance
//! analyzer can print the side-by-side breakdown shown in Fig. 3 of the
//! paper: per-operation cost, number of tuples accessed, and totals.

use std::fmt;
use std::time::Duration;

/// Metrics for a single physical operator.
#[derive(Debug, Clone)]
pub struct OperatorMetrics {
    /// Operator label, e.g. `SeqScan(call)`, `HashJoin`, `Fetch(ψ1)`.
    pub operator: String,
    /// Rows produced by the operator.
    pub rows_out: u64,
    /// Base-table tuples (or index partial tuples) accessed by the operator.
    /// Zero for operators that only transform intermediates.
    pub tuples_accessed: u64,
    /// Wall-clock time spent in the operator.
    pub elapsed: Duration,
}

/// Metrics for a whole query execution.
#[derive(Debug, Clone, Default)]
pub struct ExecutionMetrics {
    /// Per-operator metrics in execution order.
    pub operators: Vec<OperatorMetrics>,
    /// Total wall-clock time of the execution.
    pub elapsed: Duration,
}

impl ExecutionMetrics {
    /// Create an empty metrics collector.
    pub fn new() -> Self {
        ExecutionMetrics::default()
    }

    /// Record one operator.
    pub fn record(
        &mut self,
        operator: impl Into<String>,
        rows_out: u64,
        tuples_accessed: u64,
        elapsed: Duration,
    ) {
        self.operators.push(OperatorMetrics {
            operator: operator.into(),
            rows_out,
            tuples_accessed,
            elapsed,
        });
    }

    /// Total number of base-table tuples accessed across all operators.
    pub fn total_tuples_accessed(&self) -> u64 {
        self.operators.iter().map(|o| o.tuples_accessed).sum()
    }

    /// Total rows produced by the final operator (0 if nothing ran).
    pub fn final_rows(&self) -> u64 {
        self.operators.last().map(|o| o.rows_out).unwrap_or(0)
    }

    /// Render the per-operator breakdown as an aligned table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<42} {:>12} {:>16} {:>12}\n",
            "operator", "rows out", "tuples accessed", "time"
        ));
        for op in &self.operators {
            out.push_str(&format!(
                "{:<42} {:>12} {:>16} {:>12}\n",
                op.operator,
                op.rows_out,
                op.tuples_accessed,
                format_duration(op.elapsed),
            ));
        }
        out.push_str(&format!(
            "{:<42} {:>12} {:>16} {:>12}\n",
            "TOTAL",
            self.final_rows(),
            self.total_tuples_accessed(),
            format_duration(self.elapsed),
        ));
        out
    }
}

impl fmt::Display for ExecutionMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// How one plan-cache lookup was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanCacheOutcome {
    /// The (normalized) text had been prepared before.
    TextHit,
    /// A new text of a known query shape: the shape's plan was bound to
    /// this text's literal values.
    ShapeHit,
    /// A new shape: parse → bind → graph → check → plan ran.
    Miss,
}

impl PlanCacheOutcome {
    /// Whether the lookup was answered from the cache.
    pub fn is_hit(&self) -> bool {
        !matches!(self, PlanCacheOutcome::Miss)
    }

    /// `text-hit`, `shape-hit` or `miss`, as traces and logs print it.
    pub fn as_str(&self) -> &'static str {
        match self {
            PlanCacheOutcome::TextHit => "text-hit",
            PlanCacheOutcome::ShapeHit => "shape-hit",
            PlanCacheOutcome::Miss => "miss",
        }
    }
}

impl fmt::Display for PlanCacheOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Hit/miss counters of a keyed plan cache (the `BeasSystem` cache mapping
/// SQL texts and query shapes to checked plans).  Lives here so every layer
/// reports cache effectiveness through the same metrics vocabulary as the
/// per-operator breakdowns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache, by text or by shape.
    pub hits: u64,
    /// The part of `hits` answered by binding a cached shape to a text not
    /// seen before.
    pub shape_hits: u64,
    /// Lookups that had to parse → bind → check → plan from scratch.
    pub misses: u64,
    /// Lookups that found an entry prepared under another schema epoch — a
    /// catalog or access-schema change since — and dropped it.  Data writes
    /// invalidate nothing.
    pub invalidations: u64,
}

impl PlanCacheStats {
    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0.0 when none served).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for PlanCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan cache: {} hits ({} by shape), {} misses, {} invalidations ({:.0}% hit rate)",
            self.hits,
            self.shape_hits,
            self.misses,
            self.invalidations,
            self.hit_rate() * 100.0
        )
    }
}

/// Format a duration with millisecond precision (matching the paper's
/// "96.13ms" style reporting).
pub fn format_duration(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1000.0;
    if ms >= 1000.0 {
        format!("{:.2}s", ms / 1000.0)
    } else {
        format!("{ms:.2}ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut m = ExecutionMetrics::new();
        m.record("SeqScan(call)", 100, 1000, Duration::from_millis(5));
        m.record("HashJoin", 40, 0, Duration::from_millis(2));
        m.elapsed = Duration::from_millis(8);
        assert_eq!(m.total_tuples_accessed(), 1000);
        assert_eq!(m.final_rows(), 40);
        let s = m.render();
        assert!(s.contains("SeqScan(call)"));
        assert!(s.contains("TOTAL"));
        assert!(s.contains("1000"));
    }

    #[test]
    fn empty_metrics() {
        let m = ExecutionMetrics::new();
        assert_eq!(m.final_rows(), 0);
        assert_eq!(m.total_tuples_accessed(), 0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_micros(96_130)), "96.13ms");
        assert_eq!(format_duration(Duration::from_millis(1500)), "1.50s");
        assert!(format!("{}", ExecutionMetrics::new()).contains("operator"));
    }

    #[test]
    fn plan_cache_stats_rates() {
        let empty = PlanCacheStats::default();
        assert_eq!(empty.lookups(), 0);
        assert_eq!(empty.hit_rate(), 0.0);
        let stats = PlanCacheStats {
            hits: 3,
            shape_hits: 2,
            misses: 1,
            invalidations: 2,
        };
        assert_eq!(stats.lookups(), 4);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        let s = stats.to_string();
        assert!(s.contains("3 hits (2 by shape)"));
        assert!(s.contains("75% hit rate"));
    }
}
