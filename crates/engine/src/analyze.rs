//! EXPLAIN ANALYZE: re-associate the executor's flat per-operator metrics
//! with the logical plan tree.
//!
//! [`ExecutionMetrics`] is a flat list because streaming operators record
//! themselves post-order (inputs first) as the pipeline is torn down.  The
//! plan, however, is a tree — and the Fig. 3-style breakdown the paper
//! shows is a tree too.  [`analyze_tree`] zips the two back together by
//! walking the plan post-order with a cursor over the flat list, matching
//! each metrics line to the plan node that produced it by operator *kind*
//! (the label token before the first `(`).
//!
//! Physical-only lines with no logical counterpart — the `Vectorized(..)`
//! kernel markers — attach to the plan node they annotate (the top of the
//! fragment the columnar scan ran) instead of becoming tree nodes, so the analyzed tree always has the same shape as
//! [`LogicalPlan::explain`] regardless of which physical path ran.  A test
//! pins that property; a mismatch between the two is an engine bug and
//! surfaces as an error rather than a silently wrong tree.

use crate::metrics::{format_duration, ExecutionMetrics, OperatorMetrics};
use crate::plan::{join_name, LogicalPlan};
use beas_common::{BeasError, Result};

/// One node of the analyzed plan: the logical operator's rich label (as
/// printed by [`LogicalPlan::explain`]), the metrics line the executor
/// recorded for it, any physical annotations (vectorized markers), and its
/// children in plan order.
#[derive(Debug, Clone)]
pub struct AnalyzeNode {
    /// The node's own EXPLAIN label, e.g. `HashJoin(#0 = right.#0)`.
    pub label: String,
    /// The metrics the executor recorded for this operator.
    pub metric: OperatorMetrics,
    /// Physical-only metrics lines attached to this node: `Vectorized(..)`
    /// kernel markers.
    pub annotations: Vec<OperatorMetrics>,
    /// Child nodes, in the same order as [`LogicalPlan::explain`]
    /// (join: probe/left first, then build/right).
    pub children: Vec<AnalyzeNode>,
}

impl AnalyzeNode {
    /// Total wall-clock time of this node alone.  Operator timings are
    /// *inclusive* (each `next()` pull times the whole chain beneath it),
    /// matching the convention of PostgreSQL's `EXPLAIN ANALYZE`.
    pub fn elapsed_inclusive(&self) -> std::time::Duration {
        self.metric.elapsed
    }

    /// Metrics lines this subtree accounts for: one per node plus its
    /// annotations.
    pub fn lines(&self) -> usize {
        let below: usize = self.children.iter().map(AnalyzeNode::lines).sum();
        1 + self.annotations.len() + below
    }

    /// Render the analyzed tree as an aligned table: indented operator
    /// labels with `rows out` / `tuples accessed` / `time` columns, the
    /// same vocabulary as [`ExecutionMetrics::render`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<46} {:>10} {:>16} {:>12}\n",
            "operator", "rows out", "tuples accessed", "time"
        ));
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let label = format!("{}{}", "  ".repeat(indent), self.label);
        out.push_str(&render_line(&label, &self.metric));
        for a in &self.annotations {
            let label = format!("{}+ {}", "  ".repeat(indent + 1), a.operator);
            out.push_str(&render_line(&label, a));
        }
        for child in &self.children {
            child.render_into(out, indent + 1);
        }
    }
}

/// One row of [`AnalyzeNode::render`]'s table: `label` in the operator
/// column, then `metric`'s counters and time.
pub fn render_line(label: &str, metric: &OperatorMetrics) -> String {
    format!(
        "{:<46} {:>10} {:>16} {:>12}\n",
        label,
        metric.rows_out,
        metric.tuples_accessed,
        format_duration(metric.elapsed),
    )
}

/// The operator-kind token the executor uses for a plan node's metrics
/// line: the label up to the first `(`.
fn plan_kind(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Scan { .. } => "SeqScan",
        LogicalPlan::Context { .. } => "Context",
        LogicalPlan::Filter { .. } => "Filter",
        LogicalPlan::Join { keys, .. } => join_name(keys),
        LogicalPlan::Aggregate { .. } => "HashAggregate",
        LogicalPlan::Project { .. } => "Project",
        LogicalPlan::Distinct { .. } => "Distinct",
        LogicalPlan::Sort { .. } => "Sort",
        LogicalPlan::Limit { .. } => "Limit",
    }
}

/// The kind token of a recorded metrics label (`"HashJoin(#0 = …)"` →
/// `"HashJoin"`, `"Distinct"` → `"Distinct"`).
fn metric_kind(label: &str) -> &str {
    label.split('(').next().unwrap_or(label)
}

/// Whether a metrics line is a physical-only annotation with no logical
/// plan counterpart.
fn is_annotation(label: &str) -> bool {
    metric_kind(label) == "Vectorized"
}

/// The plan node's own EXPLAIN label: the first line of its subtree
/// rendering, so it is consistent with [`LogicalPlan::explain`] by
/// construction.
fn node_label(plan: &LogicalPlan) -> String {
    plan.explain()
        .lines()
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Zip a logical plan with the flat metrics its execution recorded,
/// producing the per-operator tree.  Fails with
/// [`BeasError::Execution`](beas_common::BeasError) if the metrics do not
/// line up with the plan — that would mean the executor ran a different
/// tree than the planner printed, which is exactly the invariant this
/// module exists to check.
pub fn analyze_tree(plan: &LogicalPlan, metrics: &ExecutionMetrics) -> Result<AnalyzeNode> {
    let mut cursor = 0usize;
    let root = analyze_node(plan, &metrics.operators, &mut cursor)?;
    if cursor != metrics.operators.len() {
        return Err(BeasError::execution(format!(
            "explain_analyze: {} trailing metrics line(s) not matched by the plan \
             (first: {:?})",
            metrics.operators.len() - cursor,
            metrics.operators[cursor].operator,
        )));
    }
    Ok(root)
}

fn analyze_node(
    plan: &LogicalPlan,
    ops: &[OperatorMetrics],
    cursor: &mut usize,
) -> Result<AnalyzeNode> {
    // Children record before parents (post-order teardown), in plan order.
    let mut children = Vec::new();
    match plan {
        LogicalPlan::Scan { .. } | LogicalPlan::Context { .. } => {}
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => {
            children.push(analyze_node(input, ops, cursor)?);
        }
        LogicalPlan::Join { left, right, .. } => {
            children.push(analyze_node(left, ops, cursor)?);
            children.push(analyze_node(right, ops, cursor)?);
        }
    }

    let want = plan_kind(plan);
    let Some(line) = ops.get(*cursor) else {
        return Err(BeasError::execution(format!(
            "explain_analyze: metrics ended before plan node {want}"
        )));
    };
    if metric_kind(&line.operator) != want {
        return Err(BeasError::execution(format!(
            "explain_analyze: plan node {want} does not match metrics line {:?}",
            line.operator
        )));
    }
    let metric = line.clone();
    *cursor += 1;

    // Physical markers recorded right after an operator annotate it: the
    // columnar scan ran this node's pipeline.
    let mut annotations = Vec::new();
    while let Some(next) = ops.get(*cursor) {
        if !is_annotation(&next.operator) {
            break;
        }
        annotations.push(next.clone());
        *cursor += 1;
    }

    Ok(AnalyzeNode {
        label: node_label(plan),
        metric,
        annotations,
        children,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn metrics(lines: &[(&str, u64)]) -> ExecutionMetrics {
        let mut m = ExecutionMetrics::new();
        for (label, rows) in lines {
            m.record(*label, *rows, 0, Duration::ZERO);
        }
        m
    }

    fn scan(name: &str) -> LogicalPlan {
        use beas_common::{ColumnDef, DataType, Schema, TableSchema};
        let ts = TableSchema::new(name, vec![ColumnDef::new("x", DataType::Int)]).unwrap();
        LogicalPlan::Scan {
            table: name.to_string(),
            alias: name.to_string(),
            schema: Schema::from_table(name, &ts),
        }
    }

    #[test]
    fn zips_linear_plan() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Distinct {
                input: Box::new(scan("t")),
            }),
            limit: 3,
        };
        let m = metrics(&[("SeqScan(t)", 10), ("Distinct", 4), ("Limit(3)", 3)]);
        let tree = analyze_tree(&plan, &m).unwrap();
        assert_eq!(tree.label, "Limit(3)");
        assert_eq!(tree.metric.rows_out, 3);
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].label, "Distinct");
        assert_eq!(tree.children[0].children[0].label, "SeqScan(t)");
    }

    #[test]
    fn attaches_annotations_to_fragment_top() {
        use beas_sql::BoundExpr;
        let pred = BoundExpr::Literal(beas_common::Value::Bool(true));
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("t")),
            predicate: pred,
        };
        // Columnar fragments record scan + ops + one Vectorized(..) marker.
        let m = metrics(&[
            ("SeqScan(t)", 10),
            ("Filter(TRUE)", 4),
            ("Vectorized(batches=1, fallbacks=0)", 4),
        ]);
        let tree = analyze_tree(&plan, &m).unwrap();
        assert_eq!(tree.annotations.len(), 1);
        assert!(tree.annotations[0].operator.starts_with("Vectorized("));
        assert!(tree.children[0].annotations.is_empty());
    }

    #[test]
    fn mismatch_is_an_error_not_a_wrong_tree() {
        let plan = LogicalPlan::Distinct {
            input: Box::new(scan("t")),
        };
        let m = metrics(&[("SeqScan(t)", 10), ("Sort", 10)]);
        assert!(analyze_tree(&plan, &m).is_err());
        // Trailing unmatched lines are an error too.
        let m2 = metrics(&[("SeqScan(t)", 10), ("Distinct", 4), ("Sort", 4)]);
        assert!(analyze_tree(&plan, &m2).is_err());
    }

    #[test]
    fn render_indents_and_aligns() {
        let plan = LogicalPlan::Distinct {
            input: Box::new(scan("t")),
        };
        let m = metrics(&[("SeqScan(t)", 10), ("Distinct", 4)]);
        let tree = analyze_tree(&plan, &m).unwrap();
        let text = tree.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("operator"));
        assert!(lines[1].starts_with("Distinct"));
        assert!(lines[2].starts_with("  SeqScan(t)"));
    }
}
