//! Name resolution: turns a parsed [`SelectStatement`] into a [`BoundQuery`]
//! whose expressions reference column offsets of a concrete input schema.
//!
//! Both engines consume the same `BoundQuery`:
//!
//! * the baseline engine plans scans/joins over the flat input schema;
//! * the BEAS planner additionally inspects the per-table structure
//!   ([`BoundTable`]) to reason about access constraints.

use crate::ast::{Expr, Literal, SelectItem, SelectStatement};
use crate::expr::{AggregateFunction, BoundExpr};
use beas_common::{BeasError, DataType, Field, Result, Schema, TableSchema, Value};
use std::sync::Arc;

/// Source of table schemas; implemented by the storage catalog.
pub trait SchemaProvider {
    /// Schema of table `name`, if it exists.
    fn table_schema(&self, name: &str) -> Option<TableSchema>;
}

impl SchemaProvider for std::collections::HashMap<String, TableSchema> {
    fn table_schema(&self, name: &str) -> Option<TableSchema> {
        self.get(&name.to_ascii_lowercase()).cloned()
    }
}

/// One table factor of the bound query.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundTable {
    /// Alias used in the query (defaults to the table name).
    pub alias: String,
    /// Underlying base-table name.
    pub table: String,
    /// Schema of the base table, shared with everything derived from this
    /// binding (query-graph atoms, copies of the bound query).
    pub schema: Arc<TableSchema>,
    /// Offset of this table's first column in the flat input schema.
    pub offset: usize,
}

impl BoundTable {
    /// Index in the flat input schema of column `name` of this table.
    pub fn input_index(&self, name: &str) -> Option<usize> {
        self.schema.column_index(name).map(|i| self.offset + i)
    }
}

/// A bound aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundAggregate {
    /// The aggregate function.
    pub func: AggregateFunction,
    /// Argument expression over the input schema; `None` for `COUNT(*)`.
    pub arg: Option<BoundExpr>,
    /// `DISTINCT` inside the call.
    pub distinct: bool,
    /// Canonical display string of the original call (used for matching
    /// references in the projection / HAVING).
    pub display: String,
    /// Result type.
    pub output_type: DataType,
}

impl BoundAggregate {
    /// The call with its argument bound to the parameter vector `values`
    /// (see [`BoundExpr::bind_params`]).
    pub fn bind_params(&self, values: &[Value]) -> BoundAggregate {
        BoundAggregate {
            func: self.func,
            arg: self.arg.as_ref().map(|a| a.bind_params(values)),
            distinct: self.distinct,
            display: self.display.clone(),
            output_type: self.output_type,
        }
    }
}

/// A fully bound query.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    /// Table factors in FROM/JOIN order.  They hold no literal of the
    /// statement, so the bound queries of one query shape share them.
    pub tables: Arc<[BoundTable]>,
    /// Flat schema: concatenation of all table schemas.
    pub input_schema: Schema,
    /// WHERE predicate plus all JOIN ON conditions, over `input_schema`.
    pub filter: Option<BoundExpr>,
    /// Whether the query aggregates (has aggregates or GROUP BY).
    pub is_aggregate: bool,
    /// GROUP BY expressions over `input_schema`.
    pub group_by: Vec<BoundExpr>,
    /// Aggregate calls over `input_schema`.
    pub aggregates: Vec<BoundAggregate>,
    /// Schema after aggregation: group keys followed by aggregate results.
    pub agg_schema: Schema,
    /// Output expressions with their names.  Bound over `input_schema` for
    /// non-aggregate queries, over `agg_schema` otherwise.
    pub output: Vec<(BoundExpr, String)>,
    /// HAVING predicate over `agg_schema`.
    pub having: Option<BoundExpr>,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// ORDER BY as (output column index, ascending).
    pub order_by: Vec<(usize, bool)>,
    /// LIMIT.
    pub limit: Option<u64>,
    /// Schema of the final output.
    pub output_schema: Schema,
}

impl BoundQuery {
    /// The bound form of the statement that has this query's shape and the
    /// parameter vector `values`: every [`BoundExpr::Param`] becomes the
    /// literal of its slot, nothing else changes.
    pub fn bind_params(&self, values: &[Value]) -> BoundQuery {
        let bind = |e: &BoundExpr| e.bind_params(values);
        BoundQuery {
            tables: Arc::clone(&self.tables),
            input_schema: self.input_schema.clone(),
            filter: self.filter.as_ref().map(bind),
            is_aggregate: self.is_aggregate,
            group_by: self.group_by.iter().map(bind).collect(),
            aggregates: self
                .aggregates
                .iter()
                .map(|a| a.bind_params(values))
                .collect(),
            agg_schema: self.agg_schema.clone(),
            output: self
                .output
                .iter()
                .map(|(e, n)| (bind(e), n.clone()))
                .collect(),
            having: self.having.as_ref().map(bind),
            distinct: self.distinct,
            order_by: self.order_by.clone(),
            limit: self.limit,
            output_schema: self.output_schema.clone(),
        }
    }

    /// The bound table with alias `alias`, if any.
    pub fn table_by_alias(&self, alias: &str) -> Option<&BoundTable> {
        let alias = alias.to_ascii_lowercase();
        self.tables.iter().find(|t| t.alias == alias)
    }
}

/// The binder.
pub struct Binder<'a> {
    provider: &'a dyn SchemaProvider,
    /// Values of the statement's parameter slots ([`Expr::Param`]).
    params: &'a [Value],
}

impl<'a> Binder<'a> {
    /// Create a binder over a schema provider (usually the storage catalog).
    pub fn new(provider: &'a dyn SchemaProvider) -> Self {
        Binder {
            provider,
            params: &[],
        }
    }

    /// Bind the parameter slots of the statement — a query shape, see
    /// [`crate::lexer::lift_literals`] — to `params`, in slot order.  Each
    /// binds to a [`BoundExpr::Param`] that remembers its slot.
    pub fn with_params(mut self, params: &'a [Value]) -> Self {
        self.params = params;
        self
    }

    /// Bind a parsed SELECT statement.
    pub fn bind(&self, stmt: &SelectStatement) -> Result<BoundQuery> {
        if stmt.from.is_empty() {
            return Err(BeasError::unsupported(
                "SELECT without FROM is not supported",
            ));
        }

        // 1. Resolve table factors and build the flat input schema.
        let mut tables: Vec<BoundTable> = Vec::new();
        let mut fields: Vec<Field> = Vec::new();
        let factors = stmt.from.iter().chain(stmt.joins.iter().map(|j| &j.table));
        for tref in factors {
            let name = tref.name.to_ascii_lowercase();
            let schema = self
                .provider
                .table_schema(&name)
                .ok_or_else(|| BeasError::binding(format!("unknown table {name:?}")))?;
            let alias = tref.effective_alias().to_ascii_lowercase();
            if tables.iter().any(|t| t.alias == alias) {
                return Err(BeasError::binding(format!(
                    "duplicate table alias {alias:?}"
                )));
            }
            let offset = fields.len();
            fields.extend(
                schema
                    .columns
                    .iter()
                    .map(|c| Field::base(alias.as_str(), c.name.as_str(), c.data_type)),
            );
            tables.push(BoundTable {
                alias,
                table: name,
                schema: Arc::new(schema),
                offset,
            });
        }
        let input_schema = Schema::new(fields);

        // 2. Bind WHERE + JOIN ON conditions: one conjunction, WHERE first.
        let conditions = stmt
            .selection
            .iter()
            .chain(stmt.joins.iter().map(|j| &j.on));
        let mut filter = None;
        for condition in conditions {
            if condition.contains_aggregate() {
                return Err(BeasError::binding(
                    "aggregate functions are not allowed in WHERE",
                ));
            }
            let bound = self.bind_scalar(condition, &input_schema)?;
            filter = Some(match filter {
                Some(f) => BoundExpr::Binary {
                    op: crate::ast::BinaryOperator::And,
                    left: Box::new(f),
                    right: Box::new(bound),
                },
                None => bound,
            });
        }

        // 3. Expand projection wildcards.
        let mut proj_items: Vec<(Expr, Option<String>)> = Vec::new();
        for item in &stmt.projection {
            match item {
                SelectItem::Wildcard => {
                    for t in &tables {
                        for c in &t.schema.columns {
                            proj_items.push((Expr::qcol(&t.alias, &c.name), None));
                        }
                    }
                }
                SelectItem::QualifiedWildcard(alias) => {
                    let alias = alias.to_ascii_lowercase();
                    let t = tables
                        .iter()
                        .find(|t| t.alias == alias)
                        .ok_or_else(|| BeasError::binding(format!("unknown alias {alias:?}")))?;
                    for c in &t.schema.columns {
                        proj_items.push((Expr::qcol(&t.alias, &c.name), None));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    proj_items.push((expr.clone(), alias.clone()));
                }
            }
        }

        // 4. Collect aggregates from the projection and HAVING.
        let mut agg_calls: Vec<Expr> = Vec::new();
        for (e, _) in &proj_items {
            collect_aggregates(e, &mut agg_calls);
        }
        if let Some(h) = &stmt.having {
            collect_aggregates(h, &mut agg_calls);
        }
        let is_aggregate = !agg_calls.is_empty() || !stmt.group_by.is_empty();

        if !is_aggregate && stmt.having.is_some() {
            return Err(BeasError::binding(
                "HAVING requires GROUP BY or aggregate functions",
            ));
        }

        // 5. Bind GROUP BY and aggregates; build the post-aggregation schema.
        let mut group_by = Vec::new();
        let mut group_fields = Vec::new();
        for g in &stmt.group_by {
            let bound = self.bind_scalar(g, &input_schema)?;
            let field = match &bound {
                BoundExpr::Column(i) => input_schema.field(*i).clone(),
                _ => Field::derived(
                    g.to_string().to_ascii_lowercase(),
                    infer_type(&bound, &input_schema),
                ),
            };
            group_fields.push(field);
            group_by.push(bound);
        }

        let mut aggregates: Vec<BoundAggregate> = Vec::new();
        let mut agg_fields = Vec::new();
        for call in &agg_calls {
            let display = call.to_string();
            if aggregates.iter().any(|a| a.display == display) {
                continue;
            }
            let (func, arg, distinct) = match call {
                Expr::Function {
                    name,
                    args,
                    distinct,
                    wildcard,
                } => {
                    let func = AggregateFunction::from_name(name).ok_or_else(|| {
                        BeasError::unsupported(format!("unknown function {name}"))
                    })?;
                    let arg = if *wildcard {
                        if func != AggregateFunction::Count {
                            return Err(BeasError::binding(format!("{func}(*) is not valid")));
                        }
                        None
                    } else {
                        if args.len() != 1 {
                            return Err(BeasError::binding(format!(
                                "{func} takes exactly one argument"
                            )));
                        }
                        if args[0].contains_aggregate() {
                            return Err(BeasError::binding("nested aggregates are not allowed"));
                        }
                        Some(self.bind_scalar(&args[0], &input_schema)?)
                    };
                    (func, arg, *distinct)
                }
                _ => unreachable!("collect_aggregates only returns Function nodes"),
            };
            let input_type = arg.as_ref().map(|a| infer_type(a, &input_schema));
            let output_type = func.output_type(input_type);
            agg_fields.push(Field::derived(display.to_ascii_lowercase(), output_type));
            aggregates.push(BoundAggregate {
                func,
                arg,
                distinct,
                display,
                output_type,
            });
        }

        let agg_schema = Schema::new(
            group_fields
                .iter()
                .cloned()
                .chain(agg_fields.iter().cloned())
                .collect(),
        );

        // 6. Bind output expressions and HAVING.
        let mut output = Vec::new();
        let mut output_fields = Vec::new();
        for (e, alias) in &proj_items {
            let (bound, field) = if is_aggregate {
                let bound = self.bind_over_aggregation(
                    e,
                    &input_schema,
                    &stmt.group_by,
                    &group_by,
                    &aggregates,
                )?;
                let dt = infer_type(&bound, &agg_schema);
                let field = match (&bound, e) {
                    (BoundExpr::Column(i), _) => agg_schema.field(*i).clone(),
                    _ => Field::derived(default_name(e), dt),
                };
                (bound, field)
            } else {
                let bound = self.bind_scalar(e, &input_schema)?;
                let dt = infer_type(&bound, &input_schema);
                let field = match &bound {
                    BoundExpr::Column(i) => input_schema.field(*i).clone(),
                    _ => Field::derived(default_name(e), dt),
                };
                (bound, field)
            };
            let name = alias
                .clone()
                .map(|a| a.to_ascii_lowercase())
                .unwrap_or_else(|| field.name.clone());
            output_fields.push(Field {
                name: name.clone(),
                data_type: field.data_type,
                table: field.table.clone(),
            });
            output.push((bound, name));
        }

        let having = match &stmt.having {
            Some(h) => Some(self.bind_over_aggregation(
                h,
                &input_schema,
                &stmt.group_by,
                &group_by,
                &aggregates,
            )?),
            None => None,
        };

        let output_schema = Schema::new(output_fields);

        // 7. ORDER BY: resolve to output column indices.
        let mut order_by = Vec::new();
        for item in &stmt.order_by {
            let idx = self.resolve_order_by(
                &item.expr,
                &output,
                &output_schema,
                is_aggregate,
                &input_schema,
                &stmt.group_by,
                &group_by,
                &aggregates,
            )?;
            order_by.push((idx, item.asc));
        }

        Ok(BoundQuery {
            tables: tables.into(),
            input_schema,
            filter,
            is_aggregate,
            group_by,
            aggregates,
            agg_schema,
            output,
            having,
            distinct: stmt.distinct,
            order_by,
            limit: stmt.limit,
            output_schema,
        })
    }

    /// Bind a scalar (non-aggregate) expression over `schema`.
    pub fn bind_scalar(&self, expr: &Expr, schema: &Schema) -> Result<BoundExpr> {
        Ok(match expr {
            Expr::Column { table, name } => {
                BoundExpr::Column(schema.resolve(table.as_deref(), name)?)
            }
            Expr::Literal(l) => BoundExpr::Literal(literal_to_value(l)),
            Expr::Param(slot) => self.bind_param(*slot)?,
            Expr::BinaryOp { left, op, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(self.bind_scalar(left, schema)?),
                right: Box::new(self.bind_scalar(right, schema)?),
            },
            Expr::UnaryOp { op, expr } => match op {
                crate::ast::UnaryOperator::Not => {
                    BoundExpr::Not(Box::new(self.bind_scalar(expr, schema)?))
                }
                crate::ast::UnaryOperator::Minus => {
                    BoundExpr::Negate(Box::new(self.bind_scalar(expr, schema)?))
                }
            },
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(self.bind_scalar(expr, schema)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(self.bind_scalar(expr, schema)?),
                list: list
                    .iter()
                    .map(|e| self.bind_scalar(e, schema))
                    .collect::<Result<Vec<_>>>()?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(self.bind_scalar(expr, schema)?),
                low: Box::new(self.bind_scalar(low, schema)?),
                high: Box::new(self.bind_scalar(high, schema)?),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: Box::new(self.bind_scalar(expr, schema)?),
                pattern: Box::new(self.bind_scalar(pattern, schema)?),
                negated: *negated,
            },
            Expr::Function { name, .. } => {
                return Err(BeasError::binding(format!(
                    "aggregate/function {name} is not allowed in this context"
                )))
            }
        })
    }

    fn bind_param(&self, slot: usize) -> Result<BoundExpr> {
        let value = self.params.get(slot).cloned().ok_or_else(|| {
            BeasError::binding(format!("parameter ?{slot} has no value bound to it"))
        })?;
        Ok(BoundExpr::Param { slot, value })
    }

    /// Bind an expression appearing after aggregation (projection or HAVING of
    /// an aggregate query) over the post-aggregation schema.
    // the arguments are the five aggregation contexts resolution threads
    // through recursion; a context struct would be built and torn down per
    // bound expression for no reuse
    #[allow(clippy::too_many_arguments)]
    fn bind_over_aggregation(
        &self,
        expr: &Expr,
        input_schema: &Schema,
        group_by_ast: &[Expr],
        group_by: &[BoundExpr],
        aggregates: &[BoundAggregate],
    ) -> Result<BoundExpr> {
        // An aggregate call maps to its slot after the group keys.
        if let Expr::Function { .. } = expr {
            let display = expr.to_string();
            if let Some(idx) = aggregates.iter().position(|a| a.display == display) {
                return Ok(BoundExpr::Column(group_by.len() + idx));
            }
            return Err(BeasError::binding(format!(
                "aggregate {display} not found (internal binder error)"
            )));
        }
        // A group-by expression (most commonly a bare column) maps to its key slot.
        for (i, g) in group_by_ast.iter().enumerate() {
            if exprs_equivalent(expr, g) {
                return Ok(BoundExpr::Column(i));
            }
        }
        match expr {
            Expr::Column { table, name } => {
                // Column not in GROUP BY: invalid in an aggregate query.
                let qualified = match table {
                    Some(t) => format!("{t}.{name}"),
                    None => name.clone(),
                };
                // Make sure the reference at least resolves, to give the most
                // useful error.
                input_schema.resolve(table.as_deref(), name)?;
                Err(BeasError::binding(format!(
                    "column {qualified} must appear in GROUP BY or be used in an aggregate"
                )))
            }
            Expr::Literal(l) => Ok(BoundExpr::Literal(literal_to_value(l))),
            Expr::Param(slot) => self.bind_param(*slot),
            Expr::BinaryOp { left, op, right } => Ok(BoundExpr::Binary {
                op: *op,
                left: Box::new(self.bind_over_aggregation(
                    left,
                    input_schema,
                    group_by_ast,
                    group_by,
                    aggregates,
                )?),
                right: Box::new(self.bind_over_aggregation(
                    right,
                    input_schema,
                    group_by_ast,
                    group_by,
                    aggregates,
                )?),
            }),
            Expr::UnaryOp { op, expr } => {
                let inner = self.bind_over_aggregation(
                    expr,
                    input_schema,
                    group_by_ast,
                    group_by,
                    aggregates,
                )?;
                Ok(match op {
                    crate::ast::UnaryOperator::Not => BoundExpr::Not(Box::new(inner)),
                    crate::ast::UnaryOperator::Minus => BoundExpr::Negate(Box::new(inner)),
                })
            }
            Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
                expr: Box::new(self.bind_over_aggregation(
                    expr,
                    input_schema,
                    group_by_ast,
                    group_by,
                    aggregates,
                )?),
                negated: *negated,
            }),
            Expr::InList {
                expr,
                list,
                negated,
            } => Ok(BoundExpr::InList {
                expr: Box::new(self.bind_over_aggregation(
                    expr,
                    input_schema,
                    group_by_ast,
                    group_by,
                    aggregates,
                )?),
                list: list
                    .iter()
                    .map(|e| {
                        self.bind_over_aggregation(
                            e,
                            input_schema,
                            group_by_ast,
                            group_by,
                            aggregates,
                        )
                    })
                    .collect::<Result<Vec<_>>>()?,
                negated: *negated,
            }),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Ok(BoundExpr::Between {
                expr: Box::new(self.bind_over_aggregation(
                    expr,
                    input_schema,
                    group_by_ast,
                    group_by,
                    aggregates,
                )?),
                low: Box::new(self.bind_over_aggregation(
                    low,
                    input_schema,
                    group_by_ast,
                    group_by,
                    aggregates,
                )?),
                high: Box::new(self.bind_over_aggregation(
                    high,
                    input_schema,
                    group_by_ast,
                    group_by,
                    aggregates,
                )?),
                negated: *negated,
            }),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Ok(BoundExpr::Like {
                expr: Box::new(self.bind_over_aggregation(
                    expr,
                    input_schema,
                    group_by_ast,
                    group_by,
                    aggregates,
                )?),
                pattern: Box::new(self.bind_over_aggregation(
                    pattern,
                    input_schema,
                    group_by_ast,
                    group_by,
                    aggregates,
                )?),
                negated: *negated,
            }),
            Expr::Function { .. } => unreachable!("handled above"),
        }
    }

    // ORDER BY resolves against output aliases, the post-aggregation schema
    // AND the pre-aggregation schema (SQL scoping rules); all three contexts
    // plus the aggregate state are genuinely needed at once
    #[allow(clippy::too_many_arguments)]
    fn resolve_order_by(
        &self,
        expr: &Expr,
        output: &[(BoundExpr, String)],
        output_schema: &Schema,
        is_aggregate: bool,
        input_schema: &Schema,
        group_by_ast: &[Expr],
        group_by: &[BoundExpr],
        aggregates: &[BoundAggregate],
    ) -> Result<usize> {
        // Positional reference: ORDER BY 2
        if let Expr::Literal(Literal::Int(n)) = expr {
            let n = *n;
            if n >= 1 && (n as usize) <= output.len() {
                return Ok(n as usize - 1);
            }
            return Err(BeasError::binding(format!(
                "ORDER BY position {n} is out of range"
            )));
        }
        // Name match against output aliases.
        if let Expr::Column { table: None, name } = expr {
            let name = name.to_ascii_lowercase();
            if let Some(i) = output.iter().position(|(_, n)| *n == name) {
                return Ok(i);
            }
        }
        // Expression match against an output expression.
        let bound = if is_aggregate {
            self.bind_over_aggregation(expr, input_schema, group_by_ast, group_by, aggregates)?
        } else {
            self.bind_scalar(expr, input_schema)?
        };
        if let Some(i) = output.iter().position(|(b, _)| *b == bound) {
            return Ok(i);
        }
        Err(BeasError::binding(format!(
            "ORDER BY expression {expr} must appear in the SELECT list (output schema {output_schema})"
        )))
    }
}

/// Convert an AST literal into a runtime value.
pub fn literal_to_value(l: &Literal) -> Value {
    match l {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(x) => Value::Float(*x),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

fn collect_aggregates(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Function { name, .. } => {
            if AggregateFunction::from_name(name).is_some() {
                out.push(expr.clone());
            }
        }
        Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) => {}
        Expr::BinaryOp { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::UnaryOp { expr, .. } => collect_aggregates(expr, out),
        Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for e in list {
                collect_aggregates(e, out);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(pattern, out);
        }
    }
}

/// Structural equivalence of AST expressions up to case of identifiers.
fn exprs_equivalent(a: &Expr, b: &Expr) -> bool {
    a.to_string().eq_ignore_ascii_case(&b.to_string())
}

fn default_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.to_ascii_lowercase(),
        other => other.to_string().to_ascii_lowercase(),
    }
}

/// Infer the result type of a bound expression over `schema`.
pub fn infer_type(expr: &BoundExpr, schema: &Schema) -> DataType {
    match expr {
        BoundExpr::Column(i) => schema.field(*i).data_type,
        BoundExpr::Literal(v) | BoundExpr::Param { value: v, .. } => {
            v.data_type().unwrap_or(DataType::Str)
        }
        BoundExpr::Binary { op, left, right } => {
            if op.is_comparison()
                || matches!(
                    op,
                    crate::ast::BinaryOperator::And | crate::ast::BinaryOperator::Or
                )
            {
                DataType::Bool
            } else {
                let l = infer_type(left, schema);
                let r = infer_type(right, schema);
                DataType::common_type(l, r).unwrap_or(DataType::Float)
            }
        }
        BoundExpr::Not(_) => DataType::Bool,
        BoundExpr::Negate(e) => infer_type(e, schema),
        BoundExpr::IsNull { .. }
        | BoundExpr::InList { .. }
        | BoundExpr::Between { .. }
        | BoundExpr::Like { .. } => DataType::Bool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use beas_common::ColumnDef;
    use std::collections::HashMap;

    fn provider() -> HashMap<String, TableSchema> {
        let mut m = HashMap::new();
        m.insert(
            "call".to_string(),
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
        );
        m.insert(
            "business".to_string(),
            TableSchema::new(
                "business",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("type", DataType::Str),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        );
        m
    }

    fn bind(sql: &str) -> Result<BoundQuery> {
        let p = provider();
        let binder = Binder::new(&p);
        binder.bind(&parse_select(sql)?)
    }

    #[test]
    fn bind_simple_projection_and_filter() {
        let q =
            bind("SELECT region, duration FROM call WHERE pnum = '123' AND duration > 60").unwrap();
        assert_eq!(q.tables.len(), 1);
        assert_eq!(q.output.len(), 2);
        assert!(!q.is_aggregate);
        assert_eq!(q.output_schema.field(0).name, "region");
        assert_eq!(q.output_schema.field(0).table.as_deref(), Some("call"));
        assert!(q.filter.is_some());
    }

    #[test]
    fn bind_join_with_aliases() {
        let q = bind(
            "SELECT c.region FROM call c, business b WHERE b.pnum = c.pnum AND b.type = 'bank'",
        )
        .unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.tables[0].alias, "c");
        assert_eq!(q.tables[1].alias, "b");
        assert_eq!(q.tables[1].offset, 5);
        assert_eq!(q.tables[1].input_index("type"), Some(6));
        assert_eq!(q.input_schema.len(), 8);
    }

    #[test]
    fn bind_explicit_join_merges_on_condition() {
        let q = bind("SELECT c.region FROM call c JOIN business b ON b.pnum = c.pnum").unwrap();
        assert!(q.filter.is_some());
        let f = q.filter.unwrap();
        assert_eq!(f.referenced_columns(), vec![0, 5]);
    }

    #[test]
    fn bind_wildcards() {
        let q = bind("SELECT * FROM call c, business b").unwrap();
        assert_eq!(q.output.len(), 8);
        let q2 = bind("SELECT b.* FROM call c, business b").unwrap();
        assert_eq!(q2.output.len(), 3);
        assert_eq!(q2.output_schema.field(0).table.as_deref(), Some("b"));
    }

    #[test]
    fn bind_aggregate_group_by_having_order() {
        let q = bind(
            "SELECT region, COUNT(*) AS n, SUM(duration) FROM call \
             GROUP BY region HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 3",
        )
        .unwrap();
        assert!(q.is_aggregate);
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.aggregates.len(), 2);
        assert_eq!(q.agg_schema.len(), 3);
        assert_eq!(q.output.len(), 3);
        // COUNT(*) in HAVING reuses the projection's aggregate slot
        assert!(q.having.is_some());
        assert_eq!(q.order_by, vec![(1, false)]);
        assert_eq!(q.limit, Some(3));
        assert_eq!(q.output_schema.field(1).name, "n");
        assert_eq!(q.output_schema.field(1).data_type, DataType::Int);
        assert_eq!(q.output_schema.field(2).data_type, DataType::Int);
    }

    #[test]
    fn aggregate_query_rejects_unaggregated_columns() {
        let err = bind("SELECT region, duration FROM call GROUP BY region").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
    }

    #[test]
    fn having_without_group_rejected() {
        assert!(bind("SELECT region FROM call HAVING region = 'a'").is_err());
    }

    #[test]
    fn aggregates_in_where_rejected() {
        assert!(bind("SELECT region FROM call WHERE COUNT(*) > 1").is_err());
    }

    #[test]
    fn unknown_table_and_column_errors() {
        assert!(bind("SELECT x FROM nosuch").is_err());
        assert!(bind("SELECT nosuchcol FROM call").is_err());
        assert!(bind("SELECT call.pnum FROM call c").is_err()); // alias hides table name
        let err = bind("SELECT pnum FROM call, business").unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn duplicate_alias_rejected() {
        assert!(bind("SELECT 1 FROM call c, business c").is_err());
    }

    #[test]
    fn order_by_variants() {
        let q = bind("SELECT region, duration FROM call ORDER BY 2, region DESC").unwrap();
        assert_eq!(q.order_by, vec![(1, true), (0, false)]);
        let q2 = bind("SELECT region FROM call ORDER BY duration").unwrap_err();
        assert!(q2.to_string().contains("ORDER BY"));
        let q3 = bind("SELECT region FROM call ORDER BY 5");
        assert!(q3.is_err());
    }

    #[test]
    fn count_distinct_and_duplicate_aggregates_deduplicated() {
        let q =
            bind("SELECT COUNT(DISTINCT pnum), COUNT(DISTINCT pnum), COUNT(*) FROM call").unwrap();
        assert_eq!(q.aggregates.len(), 2);
        assert!(q.aggregates[0].distinct);
        assert!(q.aggregates[0].arg.is_some());
        assert!(q.aggregates[1].arg.is_none());
        assert_eq!(q.output.len(), 3);
        // first two outputs point at the same aggregate slot
        assert_eq!(q.output[0].0, q.output[1].0);
    }

    #[test]
    fn group_by_without_aggregates() {
        let q = bind("SELECT region FROM call GROUP BY region").unwrap();
        assert!(q.is_aggregate);
        assert!(q.aggregates.is_empty());
        assert_eq!(q.agg_schema.len(), 1);
    }

    #[test]
    fn expression_over_aggregates() {
        let q = bind("SELECT region, SUM(duration) / COUNT(*) AS mean FROM call GROUP BY region")
            .unwrap();
        assert_eq!(q.aggregates.len(), 2);
        assert_eq!(q.output[1].1, "mean");
    }

    #[test]
    fn literal_conversion() {
        assert_eq!(literal_to_value(&Literal::Int(3)), Value::Int(3));
        assert_eq!(literal_to_value(&Literal::Null), Value::Null);
        assert_eq!(literal_to_value(&Literal::Bool(false)), Value::Bool(false));
        assert_eq!(literal_to_value(&Literal::Str("s".into())), Value::str("s"));
        assert_eq!(literal_to_value(&Literal::Float(1.5)), Value::Float(1.5));
    }

    #[test]
    fn select_without_from_unsupported() {
        assert!(bind("SELECT 1").is_err());
    }

    #[test]
    fn a_shape_bound_to_its_values_is_the_statement_bound_as_written() {
        use crate::lexer::lift_literals;
        let p = provider();
        for sql in [
            "SELECT region, duration FROM call WHERE pnum = '123' AND duration > 60",
            "SELECT region FROM call WHERE pnum = 'o''brien' -- it's a comment\n AND duration = -5",
            "SELECT region FROM call WHERE duration BETWEEN 1 AND 2 AND region IN ('a', 'b') \
             AND date = '2016-07-04' AND duration - 5 > -(3)",
            "SELECT c.region, 7 FROM call c JOIN business b ON b.pnum = c.pnum AND b.type = 'bank' \
             WHERE c.duration >= 1.5 ORDER BY 1 LIMIT 5",
            "SELECT region, COUNT(*) AS n, SUM(duration + 1) FROM call WHERE pnum LIKE '13%' \
             GROUP BY region HAVING COUNT(*) > 2 AND SUM(duration + 1) > 10 ORDER BY n DESC",
            "SELECT duration + 1 FROM call GROUP BY duration + 1 HAVING duration + 1 > 5",
        ] {
            let written = Binder::new(&p).bind(&parse_select(sql).unwrap()).unwrap();
            let (shape, values) = lift_literals(sql).unwrap();
            let template = Binder::new(&p)
                .with_params(&values)
                .bind(&parse_select(&shape).unwrap())
                .unwrap();
            assert_eq!(template.bind_params(&values), written, "{sql}");
        }
        // a slot without a value is a binding error, not a panic
        let stmt = parse_select("select region from call where pnum = ?s").unwrap();
        assert_eq!(Binder::new(&p).bind(&stmt).unwrap_err().kind(), "binding");
    }
}
