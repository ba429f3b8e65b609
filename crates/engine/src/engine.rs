//! The baseline engine facade: parse → bind → plan → execute.

use crate::analyze::{analyze_tree, AnalyzeNode};
use crate::executor::{execute, ExecOptions, Input, ParallelConfig};
use crate::metrics::ExecutionMetrics;
use crate::plan::LogicalPlan;
use crate::planner::Planner;
use crate::profile::ExecProfile;
use beas_common::{QuotaTracker, Result, Row, Schema};
use beas_sql::{parse_select, Binder, BoundQuery};
use beas_storage::Database;

/// The result of running a query: rows, their schema and execution metrics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output rows.
    pub rows: Vec<Row>,
    /// Schema of the output rows.
    pub schema: Schema,
    /// Per-operator execution metrics.
    pub metrics: ExecutionMetrics,
}

impl QueryResult {
    /// Convenience: the output rows as a set-like sorted vector, useful when
    /// comparing answers between engines irrespective of row order.
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let o = x.total_cmp(y);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            a.len().cmp(&b.len())
        });
        rows
    }
}

/// The conventional (baseline) SQL engine: statistics-ordered joins,
/// predicate pushdown, a hash join per equi-join and a cross product for a
/// join without keys.
///
/// This is the conventional DBMS the paper's evaluation compares BEAS with,
/// and the engine BEAS falls back to for queries it cannot bound; it also
/// executes the unbounded residue of partially bounded plans.
///
/// A query runs on the thread that submits it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine {
    parallel: ParallelConfig,
    exec: ExecProfile,
}

impl Engine {
    /// Replace the columnar scan's morsel size ([`ParallelConfig`]).  Like
    /// the execution profile it is a physical property: answers, order,
    /// errors and tuple accounting never change.
    pub fn with_parallelism(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// The engine's columnar-scan morsel size.
    pub fn parallelism(&self) -> ParallelConfig {
        self.parallel
    }

    /// Replace the execution profile (columnar kernels vs the row-at-a-time
    /// reference pipeline).  This is a physical property: answers, order,
    /// errors and tuple accounting never change.
    pub fn with_exec_profile(mut self, exec: ExecProfile) -> Self {
        self.exec = exec;
        self
    }

    /// The engine's execution profile.
    pub fn exec_profile(&self) -> ExecProfile {
        self.exec
    }

    /// Parse and bind a SQL string against `db`.
    pub fn bind(&self, db: &Database, sql: &str) -> Result<BoundQuery> {
        let stmt = parse_select(sql)?;
        Binder::new(db).bind(&stmt)
    }

    /// Produce the logical plan for a bound query.
    pub fn plan(&self, db: &Database, query: &BoundQuery) -> Result<LogicalPlan> {
        Planner::new(db).plan(query)
    }

    /// Run a SQL query end to end.
    pub fn run(&self, db: &Database, sql: &str) -> Result<QueryResult> {
        let bound = self.bind(db, sql)?;
        self.run_bound(db, &bound)
    }

    /// Run a SQL query end to end under a session [`QuotaTracker`]: base
    /// data access is charged as it happens and a quota trip terminates the
    /// query early with [`beas_common::BeasError::QuotaExceeded`].
    pub fn run_with_quota(
        &self,
        db: &Database,
        sql: &str,
        quota: Option<&QuotaTracker>,
    ) -> Result<QueryResult> {
        let bound = self.bind(db, sql)?;
        self.run_bound_with_quota(db, &bound, quota)
    }

    /// Run an already-bound query.
    pub fn run_bound(&self, db: &Database, query: &BoundQuery) -> Result<QueryResult> {
        self.run_bound_with_quota(db, query, None)
    }

    /// Run an already-bound query under an optional session quota.
    pub fn run_bound_with_quota(
        &self,
        db: &Database,
        query: &BoundQuery,
        quota: Option<&QuotaTracker>,
    ) -> Result<QueryResult> {
        let plan = self.plan(db, query)?;
        let mut metrics = ExecutionMetrics::new();
        let opts = ExecOptions {
            parallel: self.parallel,
            exec: self.exec,
            quota,
            ..ExecOptions::default()
        };
        let rows = execute(&plan, Input::Tables(db), &mut metrics, &opts)?;
        Ok(QueryResult {
            rows,
            schema: query.output_schema.clone(),
            metrics,
        })
    }

    /// EXPLAIN-style plan text for a SQL query.
    pub fn explain(&self, db: &Database, sql: &str) -> Result<String> {
        let bound = self.bind(db, sql)?;
        Ok(self.plan(db, &bound)?.explain())
    }

    /// EXPLAIN ANALYZE: run the query with per-operator timing forced on
    /// (regardless of the global [`beas_obs::TraceLevel`]) and return the
    /// result together with the metrics re-associated into the plan tree.
    ///
    /// Timing is forced per-pipeline rather than by flipping the global
    /// knob, so concurrent sessions keep their configured level.
    pub fn explain_analyze(&self, db: &Database, sql: &str) -> Result<EngineAnalysis> {
        let bound = self.bind(db, sql)?;
        let plan = self.plan(db, &bound)?;
        let mut metrics = ExecutionMetrics::new();
        let opts = ExecOptions {
            parallel: self.parallel,
            exec: self.exec,
            quota: None,
            timing: true,
        };
        let rows = execute(&plan, Input::Tables(db), &mut metrics, &opts)?;
        let tree = analyze_tree(&plan, &metrics)?;
        Ok(EngineAnalysis {
            plan_text: plan.explain(),
            tree,
            result: QueryResult {
                rows,
                schema: bound.output_schema.clone(),
                metrics,
            },
        })
    }
}

/// The output of [`Engine::explain_analyze`]: the plan as EXPLAIN prints
/// it, the same tree annotated with per-operator runtime metrics, and the
/// full query result (rows + flat metrics).
#[derive(Debug, Clone)]
pub struct EngineAnalysis {
    /// The plan text, byte-identical to [`Engine::explain`] for the same
    /// SQL (a differential test pins this).
    pub plan_text: String,
    /// The analyzed tree: one node per plan operator carrying the metrics
    /// line the executor recorded for it.
    pub tree: AnalyzeNode,
    /// Rows, schema and flat metrics of the (timed) execution.
    pub result: QueryResult,
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_common::{ColumnDef, DataType, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
                    ColumnDef::new("region", DataType::Str),
                    ColumnDef::new("duration", DataType::Int),
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
        let calls = vec![
            ("p1", "r1", "2016-07-04", "east", 30),
            ("p1", "r2", "2016-07-04", "east", 45),
            ("p2", "r1", "2016-07-04", "west", 10),
            ("p2", "r3", "2016-07-05", "west", 90),
            ("p3", "r4", "2016-07-05", "north", 120),
        ];
        for (p, r, d, reg, dur) in calls {
            db.insert(
                "call",
                vec![
                    Value::str(p),
                    Value::str(r),
                    Value::str(d),
                    Value::str(reg),
                    Value::Int(dur),
                ],
            )
            .unwrap();
        }
        let businesses = vec![
            ("p1", "bank", "east"),
            ("p2", "hospital", "west"),
            ("p9", "bank", "east"),
        ];
        for (p, t, r) in businesses {
            db.insert(
                "business",
                vec![Value::str(p), Value::str(t), Value::str(r)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn simple_select() {
        let db = db();
        let res = Engine::default()
            .run(&db, "SELECT recnum FROM call WHERE pnum = 'p1'")
            .unwrap();
        assert_eq!(res.rows.len(), 2);
        assert_eq!(res.schema.len(), 1);
        assert!(res.metrics.total_tuples_accessed() >= 5);
    }

    #[test]
    fn join_query() {
        let db = db();
        let sql = "SELECT c.recnum, b.type FROM call c, business b \
                   WHERE b.pnum = c.pnum AND c.region = 'east'";
        let answer = Engine::default().run(&db, sql).unwrap().sorted_rows();
        assert_eq!(answer.len(), 2); // p1 made 2 east calls, p1 is a bank
        assert_eq!(answer[0][1], Value::str("bank"));
    }

    #[test]
    fn aggregate_query() {
        let db = db();
        let res = Engine::default()
            .run(
                &db,
                "SELECT region, COUNT(*) AS n, SUM(duration) AS total FROM call \
                 GROUP BY region ORDER BY n DESC, region",
            )
            .unwrap();
        assert_eq!(res.rows.len(), 3);
        // east and west both have 2 calls; ties broken by region name
        assert_eq!(
            res.rows[0],
            vec![Value::str("east"), Value::Int(2), Value::Int(75)]
        );
        assert_eq!(
            res.rows[1],
            vec![Value::str("west"), Value::Int(2), Value::Int(100)]
        );
        assert_eq!(
            res.rows[2],
            vec![Value::str("north"), Value::Int(1), Value::Int(120)]
        );
    }

    #[test]
    fn distinct_limit_and_having() {
        let db = db();
        let res = Engine::default()
            .run(
                &db,
                "SELECT DISTINCT region FROM call ORDER BY region LIMIT 2",
            )
            .unwrap();
        assert_eq!(
            res.rows,
            vec![vec![Value::str("east")], vec![Value::str("north")]]
        );
        let res2 = Engine::default()
            .run(
                &db,
                "SELECT region FROM call GROUP BY region HAVING COUNT(*) > 1 ORDER BY region",
            )
            .unwrap();
        assert_eq!(
            res2.rows,
            vec![vec![Value::str("east")], vec![Value::str("west")]]
        );
    }

    #[test]
    fn count_distinct_and_avg() {
        let db = db();
        let res = Engine::default()
            .run(
                &db,
                "SELECT COUNT(DISTINCT pnum), AVG(duration), MIN(duration), MAX(duration) FROM call",
            )
            .unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0][0], Value::Int(3));
        assert_eq!(res.rows[0][1], Value::Float(59.0));
        assert_eq!(res.rows[0][2], Value::Int(10));
        assert_eq!(res.rows[0][3], Value::Int(120));
    }

    #[test]
    fn between_in_and_like() {
        let db = db();
        let res = Engine::default()
            .run(
                &db,
                "SELECT recnum FROM call WHERE duration BETWEEN 30 AND 90 \
                 AND region IN ('east', 'west') AND recnum LIKE 'r%' ORDER BY recnum",
            )
            .unwrap();
        assert_eq!(
            res.rows,
            vec![
                vec![Value::str("r1")],
                vec![Value::str("r2")],
                vec![Value::str("r3")]
            ]
        );
    }

    #[test]
    fn explain_and_metrics() {
        let db = db();
        let engine = Engine::default();
        let plan = engine
            .explain(
                &db,
                "SELECT c.recnum FROM call c, business b WHERE b.pnum = c.pnum",
            )
            .unwrap();
        assert!(plan.contains("HashJoin"));
        let res = engine
            .run(
                &db,
                "SELECT c.recnum FROM call c, business b WHERE b.pnum = c.pnum",
            )
            .unwrap();
        // a conventional plan must have scanned both tables in full
        assert_eq!(res.metrics.total_tuples_accessed(), 5 + 3);
        assert!(res.metrics.render().contains("SeqScan"));
    }

    #[test]
    fn explain_analyze_tree_matches_explain() {
        let db = db();
        // A hash join (keyed) and a cross product (keyless).
        let keyed = "SELECT c.region, COUNT(*) AS n FROM call c, business b \
                     WHERE b.pnum = c.pnum GROUP BY c.region ORDER BY n DESC LIMIT 2";
        let keyless = "SELECT c.region, COUNT(*) AS n FROM call c, business b \
                       GROUP BY c.region ORDER BY n DESC LIMIT 2";
        fn collect(node: &crate::analyze::AnalyzeNode, out: &mut String, indent: usize) {
            out.push_str(&"  ".repeat(indent));
            out.push_str(&node.label);
            out.push('\n');
            for c in &node.children {
                collect(c, out, indent + 1);
            }
        }
        let engine = Engine::default();
        for sql in [keyed, keyless] {
            let analysis = engine.explain_analyze(&db, sql).unwrap();
            // The analyzed tree has exactly the shape EXPLAIN prints.
            assert_eq!(analysis.plan_text, engine.explain(&db, sql).unwrap());
            let mut from_tree = String::new();
            collect(&analysis.tree, &mut from_tree, 0);
            assert_eq!(from_tree, analysis.plan_text);
            // Timing was forced on: the root operator observed real time.
            // (Zero only if the clock is broken; rows were produced.)
            assert_eq!(analysis.result.rows.len(), 2);
            // And answers agree with the untimed run.
            let baseline = engine.run(&db, sql).unwrap();
            assert_eq!(analysis.result.rows, baseline.rows);
            assert_eq!(
                analysis.result.metrics.total_tuples_accessed(),
                baseline.metrics.total_tuples_accessed()
            );
        }
    }
    #[test]
    fn errors_propagate() {
        let db = db();
        let engine = Engine::default();
        assert!(engine.run(&db, "SELECT * FROM nosuch").is_err());
        assert!(engine.run(&db, "SELECT garbage FROM call").is_err());
        assert!(engine.run(&db, "not sql at all").is_err());
    }

    #[test]
    fn date_comparison_in_where() {
        let db = db();
        let res = Engine::default()
            .run(
                &db,
                "SELECT recnum FROM call WHERE date = '2016-07-05' ORDER BY recnum",
            )
            .unwrap();
        assert_eq!(
            res.rows,
            vec![vec![Value::str("r3")], vec![Value::str("r4")]]
        );
        let res2 = Engine::default()
            .run(&db, "SELECT recnum FROM call WHERE date > '2016-07-04'")
            .unwrap();
        assert_eq!(res2.rows.len(), 2);
    }
}
