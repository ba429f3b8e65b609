//! Resource-bounded approximation.
//!
//! When a user can only afford a data-access budget smaller than a bounded
//! plan's deduced bound, BEAS "offers resource bounded approximation ...
//! which guarantees a deterministic accuracy lower bound on approximate
//! answers computed, and accesses a bounded number of tuples in the entire
//! process" (§3).  The details are deferred to a later publication; the
//! scheme implemented here is the natural instantiation over bounded plans:
//!
//! * only a covered query (one with a deduced bound) is approximated; any
//!   other is refused with `not_bounded`, since running its covered atoms
//!   alone would drop the others' predicates and return non-answers;
//! * execute the bounded plan, but cap the number of distinct keys each fetch
//!   step may look up so that the *worst-case* data access stays within the
//!   budget;
//! * every answer produced is a genuine answer (soundness — answers come from
//!   real fetched tuples) — not yet for aggregates or ORDER BY under a
//!   LIMIT, whose value on a subset is not an exact answer's (ROADMAP 16(a));
//! * the reported `coverage` is the product of the per-step fractions of keys
//!   processed, a deterministic lower bound on the fraction of the exact
//!   answer set that was explored.

use crate::executor::finalize;
use crate::fetch::{run_fetch, KeyCap};
use crate::plan::BoundedPlan;
use beas_access::AccessIndexes;
use beas_common::{BeasError, Result, Row, RowRef, Schema};
use beas_engine::{ExecOptions, ExecutionMetrics};
use beas_obs::clock;
use beas_sql::BoundQuery;

/// The result of a resource-bounded approximate execution.
#[derive(Debug, Clone)]
pub struct ApproximateExecution {
    /// The (sound) answers produced within the budget.
    pub rows: Vec<Row>,
    /// Output schema of the answer rows.
    pub schema: Schema,
    /// Tuples fetched through constraint indices (guaranteed ≤ budget).
    pub tuples_accessed: u64,
    /// Deterministic lower bound on the fraction of the exact answer set
    /// explored (1.0 means the answer is exact).
    pub coverage: f64,
    /// Per-operator metrics.
    pub metrics: ExecutionMetrics,
}

/// Execute a bounded plan under a hard budget on fetched tuples: the exact
/// executor's fetch step under a per-step key cap, then the plan's
/// finalization over whatever context the capped steps produced.
pub fn execute_with_budget(
    plan: &BoundedPlan,
    query: &BoundQuery,
    indexes: &AccessIndexes,
    budget: u64,
) -> Result<ApproximateExecution> {
    if budget == 0 {
        return Err(BeasError::invalid_argument(
            "approximation budget must be positive",
        ));
    }
    let start = clock::now();
    let opts = ExecOptions::default();
    let mut metrics = ExecutionMetrics::new();
    let mut rows = vec![RowRef::empty()];
    let mut tuples_accessed: u64 = 0;
    let mut coverage = 1.0f64;
    // Split the budget evenly across the fetch steps; each step may also use
    // budget left over by earlier steps.
    let steps = plan.fetches.len();
    let per_step = (budget / steps.max(1) as u64).max(1);

    for (step_no, fetch) in plan.fetches.iter().enumerate() {
        let t = clock::now();
        // Cap the keys so that worst-case fetched tuples stay within this
        // step's share of the budget, and additionally stop as soon as the
        // next bucket would push the total over the global budget (hard
        // guarantee: tuples_accessed ≤ budget).
        let remaining = budget - tuples_accessed;
        let step_budget = per_step.max(remaining / (steps - step_no) as u64);
        let cap = KeyCap {
            max_keys: (step_budget / fetch.constraint.n).max(1) as usize,
            max_tuples: remaining,
        };
        let step = run_fetch(fetch, indexes, &rows, Some(cap))?;
        if step.keys_total > 0 {
            coverage *= step.keys_fetched as f64 / step.keys_total as f64;
        }
        tuples_accessed += step.accessed;
        metrics.record(
            step.label("ApproxFetch", fetch, opts.timing),
            step.rows.len() as u64,
            step.accessed,
            t.elapsed(),
        );
        rows = step.rows;
    }

    let rows = finalize(plan, rows, &mut metrics, &opts)?;
    metrics.elapsed = start.elapsed();

    Ok(ApproximateExecution {
        rows,
        schema: query.output_schema.clone(),
        tuples_accessed,
        coverage,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::graph::QueryGraph;
    use crate::planner::generate_bounded_plan;
    use beas_access::{build_indexes, AccessConstraint, AccessSchema};
    use beas_common::{ColumnDef, DataType, TableSchema, Value};
    use beas_sql::{parse_select, Binder};
    use beas_storage::Database;
    use std::collections::HashSet;

    fn setup() -> (Database, AccessSchema, AccessIndexes) {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        for p in 0..20 {
            for r in 0..5 {
                db.insert(
                    "call",
                    vec![
                        Value::str(format!("p{p}")),
                        Value::str(format!("r{p}_{r}")),
                        Value::str("2016-07-04"),
                    ],
                )
                .unwrap();
            }
        }
        let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
            "call",
            &["pnum", "date"],
            &["recnum"],
            5,
        )
        .unwrap()]);
        let indexes = build_indexes(&db, &schema).unwrap();
        (db, schema, indexes)
    }

    fn prepare(sql: &str) -> (BoundedPlan, BoundQuery, AccessIndexes) {
        let (db, schema, indexes) = setup();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        (plan, bound, indexes)
    }

    fn run(
        plan: &BoundedPlan,
        query: &BoundQuery,
        indexes: &AccessIndexes,
        budget: u64,
    ) -> Result<ApproximateExecution> {
        execute_with_budget(plan, query, indexes, budget)
    }

    const SQL: &str = "select recnum from call where \
        pnum in ('p0','p1','p2','p3','p4','p5','p6','p7') and date = '2016-07-04'";

    #[test]
    fn full_budget_gives_exact_answers() {
        let (plan, query, indexes) = prepare(SQL);
        let result = run(&plan, &query, &indexes, 1_000_000).unwrap();
        assert_eq!(result.rows.len(), 40); // 8 keys x 5 recnums
        assert!((result.coverage - 1.0).abs() < 1e-9);
        assert_eq!(result.tuples_accessed, 40);
    }

    #[test]
    fn tight_budget_bounds_access_and_reports_coverage() {
        let (plan, query, indexes) = prepare(SQL);
        let result = run(&plan, &query, &indexes, 20).unwrap();
        assert!(result.tuples_accessed <= 20);
        assert!(result.coverage < 1.0);
        assert!(result.coverage >= 0.25); // at least budget/need of the keys
                                          // soundness: every approximate answer is a genuine answer
        let exact = crate::executor::execute_bounded(&plan, &indexes).unwrap();
        let exact_set: HashSet<Row> = exact.rows.into_iter().collect();
        for r in &result.rows {
            assert!(exact_set.contains(r));
        }
    }

    #[test]
    fn zero_budget_is_rejected() {
        let (plan, query, indexes) = prepare(SQL);
        assert!(run(&plan, &query, &indexes, 0).is_err());
    }
}
