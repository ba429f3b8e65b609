//! Logical query plans for the conventional (baseline) engine.

use beas_common::{Schema, Value};
use beas_sql::{BoundAggregate, BoundExpr};
use std::fmt;

/// The operator a join with these equality keys runs as: a hash join, or
/// a cross product (labelled `NestedLoopJoin`) when it has no keys.
pub(crate) fn join_name(keys: &[(usize, usize)]) -> &'static str {
    if keys.is_empty() {
        "NestedLoopJoin"
    } else {
        "HashJoin"
    }
}

/// A logical plan node.  Every node knows its output schema.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a base table under an alias.
    Scan {
        /// Base-table name.
        table: String,
        /// Alias used by the query.
        alias: String,
        /// Output schema (all columns of the table, qualified by alias).
        schema: Schema,
    },
    /// The fetched context of a bounded plan — the leaf its finalization
    /// runs over.  The executor replays the rows it is handed
    /// ([`crate::executor::Input::Context`]) and charges no tuple for them:
    /// the fetch steps that produced them already did.
    Context {
        /// Schema of the context relation.
        schema: Schema,
    },
    /// Filter rows by a predicate over the input schema.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate bound to the input schema.
        predicate: BoundExpr,
    },
    /// Join two inputs on zero or more equality keys: a hash join when
    /// there are keys, a cross product when there are none.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Equality keys as (left column index, right column index).
        /// Empty keys means a cross product.
        keys: Vec<(usize, usize)>,
        /// Output schema (left fields followed by right fields).
        schema: Schema,
    },
    /// Group-and-aggregate.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by expressions over the input schema.
        group_by: Vec<BoundExpr>,
        /// Aggregate calls over the input schema.
        aggregates: Vec<BoundAggregate>,
        /// Output schema: group keys followed by aggregate values.
        schema: Schema,
    },
    /// Projection.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output expressions over the input schema with their names.
        exprs: Vec<(BoundExpr, String)>,
        /// Output schema.
        schema: Schema,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Sort by output column indices.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys as (column index, ascending).
        keys: Vec<(usize, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum number of rows to produce.
        limit: u64,
    },
}

impl LogicalPlan {
    /// The output schema of the plan node.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Context { schema }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Project { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// A copy of the plan with every parameter of its expressions turned
    /// into the literal `values` holds for its slot (see
    /// [`BoundExpr::bind_params`]).
    pub fn bind_params(&self, values: &[Value]) -> LogicalPlan {
        let bind = |e: &BoundExpr| e.bind_params(values);
        let child = |p: &LogicalPlan| Box::new(p.bind_params(values));
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Context { .. } => self.clone(),
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: child(input),
                predicate: bind(predicate),
            },
            LogicalPlan::Join {
                left,
                right,
                keys,
                schema,
            } => LogicalPlan::Join {
                left: child(left),
                right: child(right),
                keys: keys.clone(),
                schema: schema.clone(),
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
                schema,
            } => LogicalPlan::Aggregate {
                input: child(input),
                group_by: group_by.iter().map(bind).collect(),
                aggregates: aggregates.iter().map(|a| a.bind_params(values)).collect(),
                schema: schema.clone(),
            },
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => LogicalPlan::Project {
                input: child(input),
                exprs: exprs.iter().map(|(e, n)| (bind(e), n.clone())).collect(),
                schema: schema.clone(),
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: child(input),
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: child(input),
                keys: keys.clone(),
            },
            LogicalPlan::Limit { input, limit } => LogicalPlan::Limit {
                input: child(input),
                limit: *limit,
            },
        }
    }

    /// Number of base-table scans in the plan.
    pub fn scan_count(&self) -> usize {
        match self {
            LogicalPlan::Scan { .. } => 1,
            LogicalPlan::Context { .. } => 0,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Project { input, .. } => input.scan_count(),
            LogicalPlan::Join { left, right, .. } => left.scan_count() + right.scan_count(),
        }
    }

    /// Render the plan as an indented tree (used by EXPLAIN-style output and
    /// the demo walk-through example).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::Scan { table, alias, .. } => {
                if table == alias {
                    out.push_str(&format!("{pad}SeqScan({table})\n"));
                } else {
                    out.push_str(&format!("{pad}SeqScan({table} AS {alias})\n"));
                }
            }
            LogicalPlan::Context { .. } => out.push_str(&format!("{pad}Context\n")),
            LogicalPlan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter({predicate})\n"));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Join {
                left, right, keys, ..
            } => {
                let keys_s: Vec<String> = keys
                    .iter()
                    .map(|(l, r)| format!("#{l} = right.#{r}"))
                    .collect();
                out.push_str(&format!(
                    "{pad}{}({})\n",
                    join_name(keys),
                    if keys_s.is_empty() {
                        "cross".to_string()
                    } else {
                        keys_s.join(", ")
                    }
                ));
                left.explain_into(out, indent + 1);
                right.explain_into(out, indent + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
                ..
            } => {
                let g: Vec<String> = group_by.iter().map(|e| e.to_string()).collect();
                let a: Vec<String> = aggregates.iter().map(|x| x.display.clone()).collect();
                out.push_str(&format!(
                    "{pad}HashAggregate(group=[{}], aggs=[{}])\n",
                    g.join(", "),
                    a.join(", ")
                ));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let e: Vec<String> = exprs.iter().map(|(x, n)| format!("{x} AS {n}")).collect();
                out.push_str(&format!("{pad}Project({})\n", e.join(", ")));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Distinct { input } => {
                out.push_str(&format!("{pad}Distinct\n"));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Sort { input, keys } => {
                let k: Vec<String> = keys
                    .iter()
                    .map(|(i, asc)| format!("#{i}{}", if *asc { "" } else { " DESC" }))
                    .collect();
                out.push_str(&format!("{pad}Sort({})\n", k.join(", ")));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Limit { input, limit } => {
                out.push_str(&format!("{pad}Limit({limit})\n"));
                input.explain_into(out, indent + 1);
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_common::{ColumnDef, DataType, TableSchema};

    fn scan(name: &str) -> LogicalPlan {
        let ts = TableSchema::new(
            name,
            vec![
                ColumnDef::new("pnum", DataType::Str),
                ColumnDef::new("region", DataType::Str),
            ],
        )
        .unwrap();
        LogicalPlan::Scan {
            table: name.to_string(),
            alias: name.to_string(),
            schema: Schema::from_table(name, &ts),
        }
    }

    #[test]
    fn schema_propagation_and_scan_count() {
        let left = scan("call");
        let right = scan("business");
        let joined_schema = left.schema().join(&right.schema());
        let join = LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            keys: vec![(0, 0)],
            schema: joined_schema.clone(),
        };
        assert_eq!(join.schema().len(), 4);
        assert_eq!(join.scan_count(), 2);
        let filtered = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: BoundExpr::Column(0),
        };
        assert_eq!(filtered.schema().len(), 4);
        let limited = LogicalPlan::Limit {
            input: Box::new(filtered),
            limit: 5,
        };
        assert_eq!(limited.scan_count(), 2);
    }

    #[test]
    fn explain_renders_tree() {
        let p = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Distinct {
                input: Box::new(scan("call")),
            }),
            limit: 3,
        };
        let s = p.explain();
        assert!(s.contains("Limit(3)"));
        assert!(s.contains("Distinct"));
        assert!(s.contains("SeqScan(call)"));
        assert_eq!(s.lines().count(), 3);
        assert_eq!(format!("{p}"), s);
    }

    #[test]
    fn join_names_follow_the_keys() {
        assert_eq!(join_name(&[(0, 0)]), "HashJoin");
        assert_eq!(join_name(&[]), "NestedLoopJoin");
    }
}
