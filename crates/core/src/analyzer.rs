//! The performance analyzer.
//!
//! After a query plan is carried out, the demo shows a performance analysis
//! (Fig. 3): the overall execution time, the acceleration ratio compared to
//! commercial DBMSs, the total number of tuples fetched and the number of
//! access constraints employed, plus a per-operation cost breakdown for both
//! BEAS and the conventional plans.  This module renders exactly that report
//! from the metrics the executors already collect.

use crate::system::EvaluationMode;
use beas_engine::analyze::render_line;
use beas_engine::{format_duration, AnalyzeNode, ExecutionMetrics, OptimizerProfile};
use std::fmt;
use std::time::Duration;

/// The measurements of one system (BEAS or one baseline profile) on a query.
#[derive(Debug, Clone)]
pub struct SystemMeasurement {
    /// Display name, e.g. `BEAS`, `pg-like (PostgreSQL)`.
    pub system: String,
    /// Total execution time.
    pub elapsed: Duration,
    /// Total tuples accessed (fetched or scanned).
    pub tuples_accessed: u64,
    /// Number of answer rows produced.
    pub rows: u64,
    /// Per-operator breakdown.
    pub metrics: ExecutionMetrics,
}

impl SystemMeasurement {
    /// Build a measurement from execution metrics.
    pub fn new(system: impl Into<String>, metrics: ExecutionMetrics, rows: u64) -> Self {
        SystemMeasurement {
            system: system.into(),
            elapsed: metrics.elapsed,
            tuples_accessed: metrics.total_tuples_accessed(),
            rows,
            metrics,
        }
    }

    /// Label for a baseline profile.
    pub fn baseline_label(profile: OptimizerProfile) -> String {
        format!("{} ({})", profile.name(), profile.stands_in_for())
    }
}

/// A Fig. 3-style performance analysis of one query.
#[derive(Debug, Clone)]
pub struct PerformanceAnalysis {
    /// The SQL text analysed.
    pub sql: String,
    /// Whether BEAS answered it with a (fully) bounded plan.
    pub bounded: bool,
    /// Number of access constraints employed by the plan.
    pub constraints_used: usize,
    /// Deduced upper bound on tuples accessed (fully bounded plans only).
    pub deduced_bound: Option<u64>,
    /// The BEAS measurement.
    pub beas: SystemMeasurement,
    /// Baseline measurements (one per optimizer profile compared against).
    pub baselines: Vec<SystemMeasurement>,
}

impl PerformanceAnalysis {
    /// Speed-up of BEAS over a baseline (baseline time / BEAS time).
    pub fn speedup_over(&self, baseline: &SystemMeasurement) -> f64 {
        let beas = self.beas.elapsed.as_secs_f64().max(1e-9);
        baseline.elapsed.as_secs_f64() / beas
    }

    /// Data-access reduction factor over a baseline
    /// (baseline tuples / BEAS tuples).
    pub fn access_reduction_over(&self, baseline: &SystemMeasurement) -> f64 {
        let beas = self.beas.tuples_accessed.max(1) as f64;
        baseline.tuples_accessed as f64 / beas
    }

    /// Render the analysis in the style of the demo's Fig. 3 panel.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("query: {}\n", self.sql));
        out.push_str(&format!(
            "plan: {}   access constraints used: {}   deduced bound: {}\n",
            if self.bounded {
                "bounded"
            } else {
                "partially bounded / conventional"
            },
            self.constraints_used,
            self.deduced_bound
                .map(|b| b.to_string())
                .unwrap_or_else(|| "n/a".to_string()),
        ));
        out.push_str(&format!(
            "{:<28} {:>14} {:>16} {:>12} {:>12}\n",
            "system", "time", "tuples accessed", "answers", "speed-up"
        ));
        out.push_str(&format!(
            "{:<28} {:>14} {:>16} {:>12} {:>12}\n",
            self.beas.system,
            format_duration(self.beas.elapsed),
            self.beas.tuples_accessed,
            self.beas.rows,
            "1.00x"
        ));
        for b in &self.baselines {
            out.push_str(&format!(
                "{:<28} {:>14} {:>16} {:>12} {:>11.0}x\n",
                b.system,
                format_duration(b.elapsed),
                b.tuples_accessed,
                b.rows,
                self.speedup_over(b)
            ));
        }
        out.push_str("\n-- BEAS per-operation breakdown --\n");
        out.push_str(&self.beas.metrics.render());
        for b in &self.baselines {
            out.push_str(&format!("\n-- {} per-operation breakdown --\n", b.system));
            out.push_str(&b.metrics.render());
        }
        out
    }
}

impl fmt::Display for PerformanceAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The output of [`crate::BeasSystem::explain_analyze`]: one timed run
/// through BEAS (bounded when covered, partial/conventional otherwise) and
/// one timed `EXPLAIN ANALYZE` run on the fallback engine, side by side.
///
/// A bounded run renders as its fetch *pipeline* (`Fetch(ψ1)`, `Fetch(ψ2)`,
/// … in execution order, flat) followed by the operator tree that finalizes
/// the fetched context; the baseline is rendered as the Fig. 3-style
/// per-operator tree.  Both trees come from the same engine operators and
/// carry `rows out` / `tuples accessed` / `time` on every node, including
/// `Vectorized(..)` annotations when the columnar scan ran.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// The SQL text analysed.
    pub sql: String,
    /// How BEAS evaluated the query.
    pub mode: EvaluationMode,
    /// Deduced upper bound on tuples accessed (fully bounded plans only).
    pub deduced_bound: Option<u64>,
    /// Number of access constraints employed.
    pub constraints_used: usize,
    /// The BEAS measurement (every operator's line, flat).
    pub beas: SystemMeasurement,
    /// The finalization of a bounded run as a per-operator tree over its
    /// `Context` leaf — the last lines of `beas.metrics`, re-associated with
    /// the plan.  `None` when the query did not run bounded.
    pub beas_finalization: Option<AnalyzeNode>,
    /// The baseline measurement from the timed fallback-engine run.
    pub baseline: SystemMeasurement,
    /// The baseline's per-operator tree with runtime metrics attached.
    pub baseline_tree: AnalyzeNode,
}

impl QueryAnalysis {
    /// Whether BEAS answered the query with a fully bounded plan.
    pub fn bounded(&self) -> bool {
        self.mode == EvaluationMode::Bounded
    }

    /// Data-access reduction factor (baseline tuples / BEAS tuples).
    pub fn access_reduction(&self) -> f64 {
        self.baseline.tuples_accessed as f64 / self.beas.tuples_accessed.max(1) as f64
    }

    /// Render the bounded-vs-baseline comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("query: {}\n", self.sql));
        out.push_str(&format!(
            "evaluation: {}   access constraints used: {}   deduced bound: {}\n",
            match self.mode {
                EvaluationMode::Bounded => "bounded",
                EvaluationMode::PartiallyBounded => "partially bounded",
                EvaluationMode::Conventional => "conventional",
            },
            self.constraints_used,
            self.deduced_bound
                .map(|b| b.to_string())
                .unwrap_or_else(|| "n/a".to_string()),
        ));
        out.push_str(&format!(
            "{:<28} {:>14} {:>16} {:>12}\n",
            "system", "time", "tuples accessed", "answers"
        ));
        for m in [&self.beas, &self.baseline] {
            out.push_str(&format!(
                "{:<28} {:>14} {:>16} {:>12}\n",
                m.system,
                format_duration(m.elapsed),
                m.tuples_accessed,
                m.rows,
            ));
        }
        out.push_str(&format!(
            "data-access reduction: {:.1}x\n",
            self.access_reduction()
        ));
        out.push_str("\n-- BEAS per-operation breakdown --\n");
        match &self.beas_finalization {
            None => out.push_str(&self.beas.metrics.render()),
            Some(tree) => {
                let ops = &self.beas.metrics.operators;
                let rendered = tree.render();
                let (header, nodes) = rendered.split_once('\n').unwrap_or((&rendered, ""));
                out.push_str(header);
                out.push('\n');
                for fetch in &ops[..ops.len().saturating_sub(tree.lines())] {
                    out.push_str(&render_line(&fetch.operator, fetch));
                }
                out.push_str(nodes);
            }
        }
        out.push_str(&format!(
            "\n-- {} EXPLAIN ANALYZE --\n",
            self.baseline.system
        ));
        out.push_str(&self.baseline_tree.render());
        out
    }
}

impl fmt::Display for QueryAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn metrics(ms: u64, tuples: u64) -> ExecutionMetrics {
        let mut m = ExecutionMetrics::new();
        m.record("op", 10, tuples, Duration::from_millis(ms));
        m.elapsed = Duration::from_millis(ms);
        m
    }

    #[test]
    fn speedups_and_render() {
        let analysis = PerformanceAnalysis {
            sql: "SELECT 1 FROM t".into(),
            bounded: true,
            constraints_used: 3,
            deduced_bound: Some(12_024_000),
            beas: SystemMeasurement::new("BEAS", metrics(1, 100), 5),
            baselines: vec![
                SystemMeasurement::new(
                    SystemMeasurement::baseline_label(OptimizerProfile::PgLike),
                    metrics(1953, 1_000_000),
                    5,
                ),
                SystemMeasurement::new(
                    SystemMeasurement::baseline_label(OptimizerProfile::MySqlLike),
                    metrics(6562, 1_000_000),
                    5,
                ),
            ],
        };
        let speedup = analysis.speedup_over(&analysis.baselines[0]);
        assert!((speedup - 1953.0).abs() < 1.0);
        assert!(analysis.access_reduction_over(&analysis.baselines[0]) > 9_000.0);
        let s = analysis.render();
        assert!(s.contains("BEAS"));
        assert!(s.contains("pg-like (PostgreSQL)"));
        assert!(s.contains("deduced bound: 12024000"));
        assert!(s.contains("per-operation breakdown"));
        assert_eq!(format!("{analysis}"), s);
    }

    #[test]
    fn handles_zero_division_gracefully() {
        let analysis = PerformanceAnalysis {
            sql: "q".into(),
            bounded: false,
            constraints_used: 0,
            deduced_bound: None,
            beas: SystemMeasurement::new("BEAS", ExecutionMetrics::new(), 0),
            baselines: vec![SystemMeasurement::new("base", metrics(10, 10), 0)],
        };
        assert!(analysis.speedup_over(&analysis.baselines[0]).is_finite());
        assert!(analysis
            .access_reduction_over(&analysis.baselines[0])
            .is_finite());
        assert!(analysis.render().contains("n/a"));
    }
}
