//! The performance analyzer.
//!
//! After a query plan is carried out, the demo shows a performance analysis
//! (Fig. 3): the overall execution time, the acceleration ratio compared to
//! a conventional DBMS, the total number of tuples fetched and the number of
//! access constraints employed, plus a per-operation cost breakdown for both
//! BEAS and the conventional plan.  [`QueryAnalysis`] renders exactly that
//! report from the metrics the executors already collect.

use crate::system::EvaluationMode;
use beas_engine::analyze::render_line;
use beas_engine::{format_duration, AnalyzeNode, ExecutionMetrics};
use std::fmt;
use std::time::Duration;

/// The name reports give the conventional engine BEAS is compared with.
pub(crate) const BASELINE_LABEL: &str = "conventional engine";

/// The measurements of one system (BEAS or the conventional engine) on a
/// query.
#[derive(Debug, Clone)]
pub struct SystemMeasurement {
    /// Display name: `BEAS` or `conventional engine`.
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

    /// Speed-up of BEAS over the conventional engine (baseline time / BEAS
    /// time).
    pub fn speedup(&self) -> f64 {
        self.baseline.elapsed.as_secs_f64() / self.beas.elapsed.as_secs_f64().max(1e-9)
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
        out.push_str(&format!("speed-up: {:.1}x\n", self.speedup()));
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

    fn measurement(system: &str, ms: u64, tuples: u64) -> SystemMeasurement {
        let mut m = ExecutionMetrics::new();
        m.record("op", 10, tuples, Duration::from_millis(ms));
        m.elapsed = Duration::from_millis(ms);
        SystemMeasurement::new(system, m, 5)
    }

    fn analysis(beas: SystemMeasurement, baseline: SystemMeasurement) -> QueryAnalysis {
        let baseline_tree = AnalyzeNode {
            label: "SeqScan(t)".into(),
            metric: baseline.metrics.operators[0].clone(),
            annotations: Vec::new(),
            children: Vec::new(),
        };
        QueryAnalysis {
            sql: "q".into(),
            mode: EvaluationMode::Conventional,
            deduced_bound: None,
            constraints_used: 0,
            beas,
            beas_finalization: None,
            baseline,
            baseline_tree,
        }
    }

    #[test]
    fn speedup_and_reduction_are_baseline_over_beas() {
        let a = analysis(
            measurement("BEAS", 1, 100),
            measurement(BASELINE_LABEL, 1953, 1_000_000),
        );
        assert!((a.speedup() - 1953.0).abs() < 1e-6);
        assert!((a.access_reduction() - 10_000.0).abs() < 1e-6);
        let text = a.render();
        assert!(text.contains("speed-up: 1953.0x"), "{text}");
        assert!(text.contains(BASELINE_LABEL));
        assert_eq!(format!("{a}"), text);
    }

    #[test]
    fn handles_zero_division_gracefully() {
        let a = analysis(
            SystemMeasurement::new("BEAS", ExecutionMetrics::new(), 0),
            measurement(BASELINE_LABEL, 10, 10),
        );
        assert!(a.speedup().is_finite());
        assert!(a.access_reduction().is_finite());
        assert!(a.render().contains("n/a"));
    }
}
