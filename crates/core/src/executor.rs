//! The BE Plan Executor: runs bounded plans against the access-constraint
//! indices.
//!
//! Execution maintains a single growing *context* relation `T` (the
//! intermediate results `T1, T2, ...` of Example 2).  Each `fetch` step looks
//! up the distinct key values present in `T`, retrieves the associated
//! partial tuples through the constraint's modified hash index, joins them
//! back onto `T`, and applies the predicates that have become checkable.
//! Base data is touched **only** inside `fetch`; every other operator works
//! on the bounded intermediates: the plan's finalization is an engine
//! [`LogicalPlan`](beas_engine::LogicalPlan) over the final context, run by
//! the engine's own operators ([`beas_engine::execute`]).
//!
//! Answers are produced under set semantics (distinct rows): constraint
//! indices store distinct partial tuples, which is also why the checker only
//! admits distinct-safe aggregates.

use crate::fetch::run_fetch;
use crate::graph::QueryGraph;
use crate::plan::BoundedPlan;
use beas_access::AccessIndexes;
use beas_common::{BeasError, QuotaTracker, Result, Row, RowRef, Schema};
use beas_engine::{execute, ExecOptions, ExecutionMetrics, Input};
use beas_obs::clock;
use beas_sql::BoundQuery;

/// The type of [`execute_ctx_with`]'s unread fetch-tuning argument, kept
/// for the callers that pass [`crate::BeasSystem::fetch_config`] through.
/// A fetch step has nothing to tune: it probes its keys one by one on the
/// calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchConfig;

/// The context relation after all fetch steps.
///
/// Context rows are pipelined [`RowRef`]s whose segments borrow the partial
/// tuples straight out of the constraint-index buckets (lifetime `'a` is the
/// index's) — each fetch extends rows by appending segments instead of
/// cloning every value through every stage.
#[derive(Debug, Clone)]
pub struct CtxResult<'a> {
    /// Schema of the context relation (fields carry their atom alias).
    pub schema: Schema,
    /// Distinct context rows.
    pub rows: Vec<RowRef<'a>>,
    /// Per-operator metrics.
    pub metrics: ExecutionMetrics,
    /// Total (partial) tuples fetched through constraint indices.
    pub tuples_accessed: u64,
}

/// The result of a full bounded execution.
#[derive(Debug, Clone)]
pub struct BoundedExecution {
    /// Output rows (set semantics).
    pub rows: Vec<Row>,
    /// Per-operator metrics, including the finalization operators.
    pub metrics: ExecutionMetrics,
    /// Total tuples fetched through constraint indices.
    pub tuples_accessed: u64,
}

/// Execute the fetch stages of a bounded plan, producing the context
/// relation.  Used directly by partially bounded evaluation.
///
/// The quota is charged once per fetch step with the partial tuples that
/// step accessed — fetch steps are the only place bounded plans touch base
/// data — so an in-flight bounded query whose actual access exceeds its
/// budget stops at the next step boundary with a structured quota error.
///
/// A plan's steps are resolved against the query when the plan is generated
/// ([`crate::plan::ResolvedFetch`]), so `query` and `graph` are not read, and
/// a fetch step has nothing to tune: those three arguments stay in the
/// signature for the callers that pass them.
pub fn execute_ctx_with<'a>(
    plan: &BoundedPlan,
    _query: &BoundQuery,
    _graph: &QueryGraph,
    indexes: &'a AccessIndexes,
    _fetch_config: FetchConfig,
    quota: Option<&QuotaTracker>,
) -> Result<CtxResult<'a>> {
    let detail = beas_obs::trace_level().timing();
    fetch_context(plan, indexes, quota, detail)
}

/// [`execute_ctx_with`]; with `detail` every `Fetch(..)` line of the metrics
/// also says how many keys the step looked up and how its accessed tuples
/// compare with its deduced bound.
pub(crate) fn fetch_context<'a>(
    plan: &BoundedPlan,
    indexes: &'a AccessIndexes,
    quota: Option<&QuotaTracker>,
    detail: bool,
) -> Result<CtxResult<'a>> {
    let mut metrics = ExecutionMetrics::new();
    let mut tuples_accessed: u64 = 0;
    let mut rows: Vec<RowRef<'a>> = vec![RowRef::empty()];
    let start_all = clock::now();

    for fetch in &plan.fetches {
        let start = clock::now();
        if let Some(q) = quota {
            q.checkpoint()?;
        }
        let step = run_fetch(fetch, indexes, &rows, None)?;
        tuples_accessed += step.accessed;
        if let Some(q) = quota {
            q.charge_tuples(step.accessed)?;
        }

        metrics.record(
            step.label("Fetch", fetch, detail),
            step.rows.len() as u64,
            step.accessed,
            start.elapsed(),
        );
        rows = step.rows;
    }

    metrics.elapsed = start_all.elapsed();
    let last = plan.fetches.last();
    Ok(CtxResult {
        schema: last.map_or_else(Schema::empty, |f| f.resolved.schema.clone()),
        rows,
        metrics,
        tuples_accessed,
    })
}

/// Execute a bounded plan end to end (fetch stages plus finalization).
pub fn execute_bounded(plan: &BoundedPlan, indexes: &AccessIndexes) -> Result<BoundedExecution> {
    execute_bounded_with(plan, indexes, &ExecOptions::default())
}

/// [`execute_bounded`] with explicit engine options: the session quota is
/// charged by the fetch steps (see [`execute_ctx_with`]) and its deadline
/// re-checked by the finalization's blocking operators.
pub fn execute_bounded_with(
    plan: &BoundedPlan,
    indexes: &AccessIndexes,
    opts: &ExecOptions<'_>,
) -> Result<BoundedExecution> {
    let start = clock::now();
    let ctx = fetch_context(plan, indexes, opts.quota, opts.timing)?;
    let mut metrics = ctx.metrics;
    let rows = finalize(plan, ctx.rows, &mut metrics, opts)?;
    metrics.elapsed = start.elapsed();
    Ok(BoundedExecution {
        rows,
        metrics,
        tuples_accessed: ctx.tuples_accessed,
    })
}

/// Turn the fetched context into the answer by running the plan's
/// finalization on the engine's operators, which append their lines to
/// `metrics` after the fetch steps'.
pub(crate) fn finalize<'a>(
    plan: &'a BoundedPlan,
    context: Vec<RowRef<'a>>,
    metrics: &mut ExecutionMetrics,
    opts: &ExecOptions<'a>,
) -> Result<Vec<Row>> {
    let finalization = plan.finalization.as_ref().map_err(BeasError::clone)?;
    execute(finalization, Input::Context(context), metrics, opts)
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

    /// A small instance of the Example 1 schema with known answers.
    fn setup() -> (Database, AccessSchema, AccessIndexes) {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "package",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("pid", DataType::Int),
                    ColumnDef::new("start_month", DataType::Int),
                    ColumnDef::new("end_month", DataType::Int),
                    ColumnDef::new("year", DataType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "business",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("type", DataType::Str),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();

        // businesses: two banks in r0 (b1, b2), one hospital (b3)
        for (p, t, r) in [
            ("b1", "bank", "r0"),
            ("b2", "bank", "r0"),
            ("b3", "hospital", "r0"),
        ] {
            db.insert(
                "business",
                vec![Value::str(p), Value::str(t), Value::str(r)],
            )
            .unwrap();
        }
        // packages: b1 in package 7 covering month 7 of 2016; b2 in package 9
        for (p, pid, s, e, y) in [
            ("b1", 7, 1, 12, 2016),
            ("b2", 9, 6, 8, 2016),
            ("b1", 7, 1, 12, 2015),
        ] {
            db.insert(
                "package",
                vec![
                    Value::str(p),
                    Value::Int(pid),
                    Value::Int(s),
                    Value::Int(e),
                    Value::Int(y),
                ],
            )
            .unwrap();
        }
        // calls on 2016-07-04: b1 calls x (east) and y (west); b2 calls z (east);
        // b3 calls w (north); b1 also calls q on another date
        for (p, r, d, reg) in [
            ("b1", "x", "2016-07-04", "east"),
            ("b1", "y", "2016-07-04", "west"),
            ("b2", "z", "2016-07-04", "east"),
            ("b3", "w", "2016-07-04", "north"),
            ("b1", "q", "2016-08-01", "south"),
        ] {
            db.insert(
                "call",
                vec![Value::str(p), Value::str(r), Value::str(d), Value::str(reg)],
            )
            .unwrap();
        }

        let schema = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum", "region"], 500).unwrap(),
            AccessConstraint::new(
                "package",
                &["pnum", "year"],
                &["pid", "start_month", "end_month"],
                12,
            )
            .unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
        ]);
        let indexes = build_indexes(&db, &schema).unwrap();
        (db, schema, indexes)
    }

    fn run(sql: &str) -> BoundedExecution {
        let (db, schema, indexes) = setup();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        execute_bounded(&plan, &indexes).unwrap()
    }

    #[test]
    fn example2_style_query_returns_exact_answer() {
        // regions of numbers called by banks in r0 on 2016-07-04 that were in
        // package 7 of 2016 covering month 7 -> only b1 qualifies -> east, west
        let result = run("select call.region from call, package, business \
             where business.type = 'bank' and business.region = 'r0' and \
             business.pnum = call.pnum and call.date = '2016-07-04' and \
             call.pnum = package.pnum and package.year = 2016 \
             and package.start_month <= 7 and package.end_month >= 7 and package.pid = 7");
        let mut regions: Vec<String> = result
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        regions.sort();
        assert_eq!(regions, vec!["east", "west"]);
        // tuples accessed: 2 business partial tuples (b1, b2), 2+1 packages
        // (one per year key hit), 2+1 calls
        assert!(result.tuples_accessed > 0);
        assert!(result.tuples_accessed <= 10);
        assert!(result.metrics.render().contains("Fetch"));
    }

    #[test]
    fn single_table_fetch() {
        let result =
            run("select recnum, region from call where pnum = 'b1' and date = '2016-07-04'");
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.tuples_accessed, 2);
    }

    #[test]
    fn fetch_with_in_list_keys() {
        let result = run(
            "select recnum from call where pnum in ('b1', 'b2') and date = '2016-07-04' order by recnum",
        );
        let names: Vec<&str> = result.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }

    #[test]
    fn aggregates_over_bounded_context() {
        let result = run(
            "select call.region, count(distinct call.recnum) from call, business \
             where business.type = 'bank' and business.region = 'r0' \
             and business.pnum = call.pnum and call.date = '2016-07-04' \
             group by call.region order by call.region",
        );
        // banks b1, b2 called: east x (b1), west y (b1), east z (b2)
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0], vec![Value::str("east"), Value::Int(2)]);
        assert_eq!(result.rows[1], vec![Value::str("west"), Value::Int(1)]);
    }

    #[test]
    fn limit_and_order_are_applied() {
        let result = run(
            "select recnum from call where pnum = 'b1' and date = '2016-07-04' \
             order by recnum desc limit 1",
        );
        assert_eq!(result.rows, vec![vec![Value::str("y")]]);
    }

    #[test]
    fn empty_key_produces_empty_answer() {
        let result = run("select recnum from call where pnum = 'unknown' and date = '2016-07-04'");
        assert!(result.rows.is_empty());
        assert_eq!(result.tuples_accessed, 0);
    }

    #[test]
    fn missing_index_is_an_error() {
        let (db, schema, _) = setup();
        let bound = Binder::new(&db)
            .bind(
                &parse_select("select recnum from call where pnum = 'b1' and date = '2016-07-04'")
                    .unwrap(),
            )
            .unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let empty = AccessIndexes::new();
        assert!(execute_bounded(&plan, &empty).is_err());
    }

    #[test]
    fn type_error_predicates_propagate_like_the_baseline() {
        // `region` is a Str column; comparing it to an Int is a runtime type
        // error.  The bounded executor used to swallow it via
        // `unwrap_or(false)` and silently return an empty answer while the
        // baseline errored — the two engines must fail identically instead.
        let (db, schema, indexes) = setup();
        let sql = "select recnum from call \
                   where pnum = 'b1' and date = '2016-07-04' and region > 5";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let bounded = execute_bounded(&plan, &indexes);
        let baseline = beas_engine::Engine::default().run(&db, sql);
        let bounded_err = bounded.expect_err("bounded must propagate the type error");
        let baseline_err = baseline.expect_err("baseline must propagate the type error");
        assert_eq!(bounded_err.kind(), baseline_err.kind());
        assert_eq!(bounded_err.kind(), "type");
    }

    #[test]
    fn approximation_fails_exactly_where_exact_execution_does() {
        // Approximation runs the exact executor's fetch step, so it inherits
        // its error discipline: a type error in a predicate, and a key
        // literal that cannot be cast to the constraint's key type, surface
        // with the same kind on both paths instead of a silent answer.
        let (db, schema, indexes) = setup();
        for (sql, kind) in [
            (
                "select recnum from call \
                 where pnum = 'b1' and date = '2016-07-04' and region > 5",
                "type",
            ),
            (
                "select recnum from call where pnum = 'b1' and date = 'not-a-date'",
                "parse",
            ),
        ] {
            let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
            let graph = QueryGraph::build(&bound).unwrap();
            let coverage = Checker::new(&schema).check(&bound, &graph);
            assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
            let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
            let exact = execute_bounded(&plan, &indexes).expect_err("exact execution must fail");
            let approx = crate::approx::execute_with_budget(&plan, &bound, &indexes, 1_000)
                .expect_err("approximation must fail, not answer");
            assert_eq!(approx.kind(), exact.kind(), "{sql}");
            assert_eq!(exact.kind(), kind, "{sql}");
        }
    }

    #[test]
    fn order_by_limit_with_ties_equals_the_full_sort_prefix() {
        // The finalization's Sort under a Limit runs the engine's stable
        // top-k heap: with ties on the sort key its answer must be exactly
        // the prefix of the full (stable) sort, for every k.
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        // 12 distinct receivers spread over 3 regions: every region ties 4x
        for i in 0..12 {
            db.insert(
                "call",
                vec![
                    Value::str("b1"),
                    Value::str(format!("r{:02}", (i * 7) % 12)),
                    Value::str(["east", "west", "north"][i % 3]),
                ],
            )
            .unwrap();
        }
        let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
            "call",
            &["pnum"],
            &["recnum", "region"],
            100,
        )
        .unwrap()]);
        let indexes = build_indexes(&db, &schema).unwrap();
        let run = |sql: &str| {
            let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
            let graph = QueryGraph::build(&bound).unwrap();
            let coverage = Checker::new(&schema).check(&bound, &graph);
            assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
            let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
            execute_bounded(&plan, &indexes).unwrap()
        };
        let base = "select recnum, region from call where pnum = 'b1' order by region desc";
        let full = run(base).rows;
        assert_eq!(full.len(), 12);
        for k in [0, 1, 4, 5, 11, 12, 20] {
            let limited = run(&format!("{base} limit {k}"));
            assert_eq!(limited.rows, full[..k.min(12)], "limit {k}");
            assert!(limited.metrics.render().contains("Sort"));
        }
    }

    #[test]
    fn null_fetch_keys_join_nothing_like_the_baseline() {
        // business.pnum is nullable; the fetch of `call` is keyed on the
        // context's pnum values.  The constraint index groups NULLs
        // (DISTINCT semantics), but SQL equality never matches NULL — a NULL
        // context key must fetch nothing, exactly like the baseline join.
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::nullable("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "business",
                vec![
                    ColumnDef::nullable("pnum", DataType::Str),
                    ColumnDef::new("type", DataType::Str),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        // one bank with a NULL pnum — it must not join the NULL-pnum call
        for (p, t, r) in [
            (Value::str("b1"), "bank", "r0"),
            (Value::Null, "bank", "r0"),
        ] {
            db.insert("business", vec![p, Value::str(t), Value::str(r)])
                .unwrap();
        }
        for (p, rec) in [
            (Value::str("b1"), "x"),
            (Value::Null, "null-call"),
            (Value::str("b2"), "y"),
        ] {
            db.insert("call", vec![p, Value::str(rec), Value::str("2016-07-04")])
                .unwrap();
        }
        let schema = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum"], 500).unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
        ]);
        let indexes = build_indexes(&db, &schema).unwrap();
        let sql = "select distinct call.recnum from call, business \
                   where business.type = 'bank' and business.region = 'r0' \
                   and business.pnum = call.pnum and call.date = '2016-07-04'";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let bounded = execute_bounded(&plan, &indexes).unwrap();
        let baseline = beas_engine::Engine::default().run(&db, sql).unwrap();
        let canon = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
            rows
        };
        assert_eq!(canon(bounded.rows.clone()), canon(baseline.rows));
        // only the b1 call qualifies; the NULL-keyed call must be absent
        assert_eq!(bounded.rows, vec![vec![Value::str("x")]]);
    }

    #[test]
    fn a_fetch_over_thousands_of_keys_matches_baseline() {
        // The second fetch looks up 3 072 distinct context keys in one
        // step, far more than any benchmark shape asks for.
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
        db.create_table(
            TableSchema::new(
                "business",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("type", DataType::Str),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let n = 3 * 1024;
        for i in 0..n {
            db.insert(
                "business",
                vec![
                    Value::str(format!("p{i}")),
                    Value::str("bank"),
                    Value::str("r0"),
                ],
            )
            .unwrap();
            for r in 0..2 {
                db.insert(
                    "call",
                    vec![
                        Value::str(format!("p{i}")),
                        Value::str(format!("rec{i}_{r}")),
                        Value::str("2016-07-04"),
                    ],
                )
                .unwrap();
            }
        }
        let schema = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum"], 10).unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 5000).unwrap(),
        ]);
        let indexes = build_indexes(&db, &schema).unwrap();
        let sql = "select distinct call.recnum from call, business \
                   where business.type = 'bank' and business.region = 'r0' \
                   and business.pnum = call.pnum and call.date = '2016-07-04'";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let bounded = execute_bounded(&plan, &indexes).unwrap();
        assert_eq!(bounded.rows.len(), n * 2);
        let baseline = beas_engine::Engine::default().run(&db, sql).unwrap();
        let canon = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
            rows
        };
        assert_eq!(canon(bounded.rows), canon(baseline.rows));
        // every (pnum, date) bucket was fetched exactly once
        assert_eq!(bounded.tuples_accessed, (n + n * 2) as u64);
    }

    #[test]
    fn bounded_quota_charges_fetches_and_trips_early() {
        let (db, schema, indexes) = setup();
        let sql = "select recnum, region from call where pnum = 'b1' and date = '2016-07-04'";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        // a generous quota: the execution succeeds and the tracker accounts
        // for exactly the tuples the metrics report
        let tracker = beas_common::ResourceQuota::unlimited()
            .with_max_tuples(100)
            .tracker();
        let charged = ExecOptions {
            quota: Some(&tracker),
            ..ExecOptions::default()
        };
        let ok = execute_bounded_with(&plan, &indexes, &charged).unwrap();
        assert_eq!(tracker.tuples_used(), ok.tuples_accessed);
        // a 1-tuple quota trips on the 2-tuple fetch with a structured error
        let tight = beas_common::ResourceQuota::unlimited()
            .with_max_tuples(1)
            .tracker();
        let charged = ExecOptions {
            quota: Some(&tight),
            ..ExecOptions::default()
        };
        let err = execute_bounded_with(&plan, &indexes, &charged)
            .expect_err("fetch exceeds the 1-tuple quota");
        assert_eq!(err.kind(), "quota_exceeded");
        assert!(tight.is_tripped());
    }

    #[test]
    fn bounded_answers_match_baseline_engine() {
        let (db, schema, indexes) = setup();
        let sql = "select distinct call.region from call, business \
                   where business.type = 'bank' and business.region = 'r0' \
                   and business.pnum = call.pnum and call.date = '2016-07-04'";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let bounded = execute_bounded(&plan, &indexes).unwrap();
        let baseline = beas_engine::Engine::default().run(&db, sql).unwrap();
        let mut a = bounded.rows.clone();
        let mut b = baseline.rows.clone();
        a.sort_by(|x, y| x[0].total_cmp(&y[0]));
        b.sort_by(|x, y| x[0].total_cmp(&y[0]));
        assert_eq!(a, b);
        // and the bounded run touched far fewer tuples than the full scans
        assert!(bounded.tuples_accessed < baseline.metrics.total_tuples_accessed());
    }
}
