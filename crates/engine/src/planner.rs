//! The baseline query planner: turns a [`BoundQuery`] into a [`LogicalPlan`].
//!
//! The planner performs the textbook rewrites a conventional DBMS applies —
//! predicate pushdown, equi-join extraction (a hash join per equi-join, a
//! cross product for a join without keys) and greedy join ordering by
//! estimated cardinality — but it remains *unbounded*: every plan ultimately
//! scans base tables in full, so its cost grows with `|D|`.  The contrast
//! with BEAS's bounded plans is the point of the paper's evaluation.

use crate::plan::LogicalPlan;
use beas_common::{BeasError, Result, Schema};
use beas_sql::ast::BinaryOperator;
use beas_sql::{BoundExpr, BoundQuery};
use beas_storage::Database;
use std::collections::{HashMap, HashSet};

/// The baseline planner.
pub struct Planner<'a> {
    db: &'a Database,
}

/// A WHERE-clause conjunct annotated with the tables it touches.
#[derive(Debug, Clone)]
struct Conjunct {
    expr: BoundExpr,
    /// Indices (into `BoundQuery::tables`) of tables referenced.
    tables: HashSet<usize>,
    /// For `col = col` conjuncts spanning exactly two tables: the global
    /// column indices of the two sides.
    eq_edge: Option<(usize, usize)>,
}

impl<'a> Planner<'a> {
    /// Create a planner for a database.
    pub fn new(db: &'a Database) -> Self {
        Planner { db }
    }

    /// Plan a bound query.
    pub fn plan(&self, query: &BoundQuery) -> Result<LogicalPlan> {
        // 1. Split and annotate WHERE conjuncts.
        let conjuncts = self.analyze_conjuncts(query);

        // 2. Decide join order.
        let order = self.join_order(query, &conjuncts)?;

        // 3. Build scan (+ pushed-down filter) nodes and join them.
        let mut plan = self.build_join_tree(query, &conjuncts, &order)?;

        // 4. Apply residual predicates (those not pushed down or used as keys).
        plan = self.apply_residual_filters(query, &conjuncts, plan)?;

        // 5–7. Aggregation, projection, distinct, sort, limit.
        let schema = plan.schema();
        finalize_plan(query, plan, query.distinct, |e| {
            remap_expr(e, &query.input_schema, &schema)
        })
    }

    fn analyze_conjuncts(&self, query: &BoundQuery) -> Vec<Conjunct> {
        let Some(filter) = &query.filter else {
            return Vec::new();
        };
        split_bound_conjuncts(filter)
            .into_iter()
            .map(|expr| {
                let cols = expr.referenced_columns();
                let tables: HashSet<usize> =
                    cols.iter().map(|&c| table_of_column(query, c)).collect();
                let eq_edge = match &expr {
                    BoundExpr::Binary {
                        op: BinaryOperator::Eq,
                        left,
                        right,
                    } => match (left.as_ref(), right.as_ref()) {
                        (BoundExpr::Column(a), BoundExpr::Column(b))
                            if table_of_column(query, *a) != table_of_column(query, *b) =>
                        {
                            Some((*a, *b))
                        }
                        _ => None,
                    },
                    _ => None,
                };
                Conjunct {
                    expr,
                    tables,
                    eq_edge,
                }
            })
            .collect()
    }

    /// Estimated number of rows a table contributes after its pushed-down
    /// single-table predicates.
    fn estimated_table_rows(
        &self,
        query: &BoundQuery,
        table_idx: usize,
        conjuncts: &[Conjunct],
    ) -> f64 {
        let t = &query.tables[table_idx];
        let base = self
            .db
            .table(&t.table)
            .map(|tb| tb.row_count() as f64)
            .unwrap_or(1000.0);
        let mut rows = base.max(1.0);
        for c in conjuncts {
            if c.tables.len() == 1 && c.tables.contains(&table_idx) {
                // crude selectivity model: equality ~ 1/distinct, everything else 1/3
                let sel = match &c.expr {
                    BoundExpr::Binary {
                        op: BinaryOperator::Eq,
                        left,
                        right,
                    } => {
                        let col = match (left.as_ref(), right.as_ref()) {
                            (BoundExpr::Column(i), BoundExpr::Literal(_)) => Some(*i),
                            (BoundExpr::Literal(_), BoundExpr::Column(i)) => Some(*i),
                            _ => None,
                        };
                        col.map(|i| {
                            let field = query.input_schema.field(i);
                            // memoized per write generation: one stats scan
                            // per table per generation, not per planned query
                            self.db
                                .statistics(&t.table)
                                .ok()
                                .map(|s| s.equality_selectivity(&field.name))
                                .unwrap_or(0.1)
                        })
                        .unwrap_or(0.33)
                    }
                    _ => 0.33,
                };
                rows *= sel;
            }
        }
        rows.max(1.0)
    }

    fn join_order(&self, query: &BoundQuery, conjuncts: &[Conjunct]) -> Result<Vec<usize>> {
        let n = query.tables.len();
        if n == 0 {
            return Err(BeasError::plan("query references no tables"));
        }
        // Greedy: start from the smallest estimated table, then repeatedly add
        // the connected table with the smallest estimate (falling back to the
        // smallest unconnected one).
        let est: Vec<f64> = (0..n)
            .map(|i| self.estimated_table_rows(query, i, conjuncts))
            .collect();
        let mut remaining: HashSet<usize> = (0..n).collect();
        let first = (0..n)
            .min_by(|&a, &b| est[a].partial_cmp(&est[b]).unwrap())
            .unwrap();
        let mut order = vec![first];
        remaining.remove(&first);
        while !remaining.is_empty() {
            let connected: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&cand| {
                    conjuncts.iter().any(|c| {
                        c.eq_edge.is_some()
                            && c.tables.contains(&cand)
                            && c.tables.iter().any(|t| order.contains(t))
                    })
                })
                .collect();
            let pool = if connected.is_empty() {
                remaining.iter().copied().collect::<Vec<_>>()
            } else {
                connected
            };
            let next = pool
                .into_iter()
                .min_by(|&a, &b| est[a].partial_cmp(&est[b]).unwrap())
                .unwrap();
            order.push(next);
            remaining.remove(&next);
        }
        Ok(order)
    }

    fn scan_with_pushdown(
        &self,
        query: &BoundQuery,
        table_idx: usize,
        conjuncts: &[Conjunct],
        consumed: &mut [bool],
    ) -> Result<LogicalPlan> {
        let t = &query.tables[table_idx];
        let schema = Schema::from_table(&t.alias, &t.schema);
        let mut plan = LogicalPlan::Scan {
            table: t.table.clone(),
            alias: t.alias.clone(),
            schema: schema.clone(),
        };
        let mut preds = Vec::new();
        for (i, c) in conjuncts.iter().enumerate() {
            if !consumed[i] && c.tables.len() == 1 && c.tables.contains(&table_idx) {
                preds.push(remap_expr(&c.expr, &query.input_schema, &schema)?);
                consumed[i] = true;
            }
        }
        if let Some(pred) = conjoin_bound(preds) {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: pred,
            };
        }
        Ok(plan)
    }

    fn build_join_tree(
        &self,
        query: &BoundQuery,
        conjuncts: &[Conjunct],
        order: &[usize],
    ) -> Result<LogicalPlan> {
        let mut consumed = vec![false; conjuncts.len()];
        let mut joined_tables: Vec<usize> = vec![order[0]];
        let mut plan = self.scan_with_pushdown(query, order[0], conjuncts, &mut consumed)?;

        for &next in &order[1..] {
            let right = self.scan_with_pushdown(query, next, conjuncts, &mut consumed)?;
            let left_schema = plan.schema();
            let right_schema = right.schema();
            // Collect equality keys connecting `next` to the already-joined set.
            let mut keys = Vec::new();
            for (i, c) in conjuncts.iter().enumerate() {
                if consumed[i] {
                    continue;
                }
                if let Some((a, b)) = c.eq_edge {
                    let ta = table_of_column(query, a);
                    let tb = table_of_column(query, b);
                    let (joined_col, new_col) = if ta == next && joined_tables.contains(&tb) {
                        (b, a)
                    } else if tb == next && joined_tables.contains(&ta) {
                        (a, b)
                    } else {
                        continue;
                    };
                    let l = plan_index_of(query, &left_schema, joined_col)?;
                    let r = plan_index_of(query, &right_schema, new_col)?;
                    keys.push((l, r));
                    consumed[i] = true;
                }
            }
            let schema = left_schema.join(&right_schema);
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(right),
                keys,
                schema,
            };
            joined_tables.push(next);
        }
        Ok(plan)
    }

    fn apply_residual_filters(
        &self,
        query: &BoundQuery,
        conjuncts: &[Conjunct],
        plan: LogicalPlan,
    ) -> Result<LogicalPlan> {
        // Everything not consumed by pushdown or join keys is applied here.
        let plan_schema = plan.schema();
        let mut residual = Vec::new();
        for c in conjuncts {
            let is_key = c.eq_edge.is_some() && c.tables.len() == 2;
            let is_pushed = c.tables.len() == 1;
            if is_key || is_pushed {
                continue;
            }
            residual.push(remap_expr(&c.expr, &query.input_schema, &plan_schema)?);
        }
        Ok(match conjoin_bound(residual) {
            Some(pred) => LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: pred,
            },
            None => plan,
        })
    }
}

/// Stack the nodes that finalize `query`'s answer on `plan`: aggregation
/// with its HAVING filter, projection, duplicate elimination (when
/// `distinct`), sort and limit.  `rebind` turns an expression bound over the
/// query's flat input schema into one over `plan`'s output.
///
/// Shared by the baseline planner (over its join tree) and the bounded
/// planner (over the fetched context), so both engines finalize answers
/// with the same operators.
pub fn finalize_plan(
    query: &BoundQuery,
    mut plan: LogicalPlan,
    distinct: bool,
    rebind: impl Fn(&BoundExpr) -> Result<BoundExpr>,
) -> Result<LogicalPlan> {
    let exprs = if query.is_aggregate {
        let group_by = query.group_by.iter().map(&rebind).collect::<Result<_>>()?;
        let mut aggregates = query.aggregates.clone();
        for agg in &mut aggregates {
            if let Some(arg) = &agg.arg {
                agg.arg = Some(rebind(arg)?);
            }
        }
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by,
            aggregates,
            schema: query.agg_schema.clone(),
        };
        if let Some(h) = &query.having {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: h.clone(),
            };
        }
        // Output expressions are already bound over the aggregate schema.
        query.output.clone()
    } else {
        query
            .output
            .iter()
            .map(|(e, n)| Ok((rebind(e)?, n.clone())))
            .collect::<Result<Vec<_>>>()?
    };
    plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: query.output_schema.clone(),
    };
    if distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }
    if !query.order_by.is_empty() {
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys: query.order_by.clone(),
        };
    }
    if let Some(limit) = query.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            limit,
        };
    }
    Ok(plan)
}

/// Split a bound predicate into top-level conjuncts.
pub fn split_bound_conjuncts(expr: &BoundExpr) -> Vec<BoundExpr> {
    let mut out = Vec::new();
    fn rec(e: &BoundExpr, out: &mut Vec<BoundExpr>) {
        match e {
            BoundExpr::Binary {
                op: BinaryOperator::And,
                left,
                right,
            } => {
                rec(left, out);
                rec(right, out);
            }
            other => out.push(other.clone()),
        }
    }
    rec(expr, &mut out);
    out
}

/// AND together a list of bound predicates.
pub fn conjoin_bound(mut preds: Vec<BoundExpr>) -> Option<BoundExpr> {
    if preds.is_empty() {
        return None;
    }
    let mut acc = preds.remove(0);
    for p in preds {
        acc = BoundExpr::Binary {
            op: BinaryOperator::And,
            left: Box::new(acc),
            right: Box::new(p),
        };
    }
    Some(acc)
}

/// Which table (index into `query.tables`) a global input-schema column
/// belongs to.
pub fn table_of_column(query: &BoundQuery, col: usize) -> usize {
    query
        .tables
        .iter()
        .enumerate()
        .rev()
        .find(|(_, t)| col >= t.offset)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Index of global input-schema column `col` within `schema` (matched by
/// table alias + column name origin).
pub fn plan_index_of(query: &BoundQuery, schema: &Schema, col: usize) -> Result<usize> {
    let field = query.input_schema.field(col);
    let table = field
        .table
        .as_deref()
        .ok_or_else(|| BeasError::plan(format!("column {} has no table origin", field.name)))?;
    schema.index_of_origin(table, &field.name).ok_or_else(|| {
        BeasError::plan(format!(
            "column {table}.{} not found in plan schema {schema}",
            field.name
        ))
    })
}

/// Remap a bound expression from `from` schema offsets to `to` schema offsets
/// by matching field origins (alias + column name).
pub fn remap_expr(expr: &BoundExpr, from: &Schema, to: &Schema) -> Result<BoundExpr> {
    let mut mapping = HashMap::new();
    for col in expr.referenced_columns() {
        let field = from.field(col);
        let target = match &field.table {
            Some(t) => to.index_of_origin(t, &field.name),
            None => to
                .fields()
                .iter()
                .position(|f| f.table.is_none() && f.name == field.name),
        };
        let target = target.ok_or_else(|| {
            BeasError::plan(format!(
                "cannot remap column {} into schema {to}",
                field.qualified_name()
            ))
        })?;
        mapping.insert(col, target);
    }
    expr.remap_columns(&mapping)
        .ok_or_else(|| BeasError::plan("column remapping failed".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_common::{ColumnDef, DataType, TableSchema, Value};
    use beas_sql::{parse_select, Binder};

    fn test_db() -> Database {
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
        // business is much smaller than call
        for i in 0..100 {
            db.insert(
                "call",
                vec![
                    Value::str(format!("p{}", i % 10)),
                    Value::str(format!("r{i}")),
                    Value::str("2016-07-04"),
                    Value::str("east"),
                ],
            )
            .unwrap();
        }
        for i in 0..5 {
            db.insert(
                "business",
                vec![
                    Value::str(format!("p{i}")),
                    Value::str("bank"),
                    Value::str("east"),
                ],
            )
            .unwrap();
        }
        db
    }

    fn bind(db: &Database, sql: &str) -> BoundQuery {
        Binder::new(db).bind(&parse_select(sql).unwrap()).unwrap()
    }

    #[test]
    fn plans_simple_scan_filter_project() {
        let db = test_db();
        let q = bind(&db, "SELECT region FROM call WHERE pnum = 'p1'");
        let plan = Planner::new(&db).plan(&q).unwrap();
        let s = plan.explain();
        assert!(s.contains("Project"));
        assert!(s.contains("Filter"));
        assert!(s.contains("SeqScan(call)"));
        assert_eq!(plan.schema().len(), 1);
    }

    #[test]
    fn starts_from_smaller_filtered_table() {
        let db = test_db();
        let q = bind(
            &db,
            "SELECT c.region FROM call c, business b WHERE b.pnum = c.pnum AND b.type = 'bank'",
        );
        let plan = Planner::new(&db).plan(&q).unwrap();
        let s = plan.explain();
        // business (5 rows) should be the left/first input
        let biz_pos = s.find("SeqScan(business").unwrap();
        let call_pos = s.find("SeqScan(call").unwrap();
        assert!(biz_pos < call_pos, "plan: {s}");
        assert!(s.contains("HashJoin"));
    }

    #[test]
    fn aggregate_plan_structure() {
        let db = test_db();
        let q = bind(
            &db,
            "SELECT region, COUNT(*) AS n FROM call GROUP BY region HAVING COUNT(*) > 1 ORDER BY n LIMIT 2",
        );
        let plan = Planner::new(&db).plan(&q).unwrap();
        let s = plan.explain();
        assert!(s.contains("HashAggregate"));
        assert!(s.contains("Limit(2)"));
        assert!(s.contains("Sort"));
        // HAVING filter sits above the aggregate
        let agg_pos = s.find("HashAggregate").unwrap();
        let filter_pos = s.find("Filter").unwrap();
        assert!(filter_pos < agg_pos);
    }

    #[test]
    fn cross_join_when_no_keys() {
        let db = test_db();
        let q = bind(&db, "SELECT c.region FROM call c, business b");
        let plan = Planner::new(&db).plan(&q).unwrap();
        assert_eq!(find_join(&plan), Some(vec![]), "expected a keyless join");
        assert!(plan.explain().contains("NestedLoopJoin(cross)"));
    }

    fn find_join(plan: &LogicalPlan) -> Option<Vec<(usize, usize)>> {
        match plan {
            LogicalPlan::Join { keys, .. } => Some(keys.clone()),
            LogicalPlan::Scan { .. } | LogicalPlan::Context { .. } => None,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Project { input, .. } => find_join(input),
        }
    }

    #[test]
    fn helper_functions() {
        let db = test_db();
        let q = bind(
            &db,
            "SELECT c.region FROM call c, business b WHERE b.pnum = c.pnum",
        );
        assert_eq!(table_of_column(&q, 0), 0);
        assert_eq!(table_of_column(&q, 4), 1);
        let conjs = split_bound_conjuncts(q.filter.as_ref().unwrap());
        assert_eq!(conjs.len(), 1);
        assert!(conjoin_bound(vec![]).is_none());
        let rejoined = conjoin_bound(conjs).unwrap();
        assert_eq!(split_bound_conjuncts(&rejoined).len(), 1);
    }
}
