//! Untyped SQL abstract syntax tree produced by the parser.
//!
//! The AST keeps enough structure to be re-rendered as SQL text (used by the
//! parser round-trip property tests and by the performance analyzer when it
//! prints plans).

use std::fmt;

/// A top-level SQL statement.  The workspace only evaluates queries; DDL and
/// DML are handled programmatically through the storage API.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `SELECT` query.
    Select(SelectStatement),
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStatement {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub projection: Vec<SelectItem>,
    /// Tables in the `FROM` clause (comma-separated factors).
    pub from: Vec<TableRef>,
    /// Explicit `JOIN ... ON` clauses attached after the first factor.
    pub joins: Vec<JoinClause>,
    /// `WHERE` predicate.
    pub selection: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS alias`.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output alias.
        alias: Option<String>,
    },
}

/// A table factor in the `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Base-table name.
    pub name: String,
    /// Optional alias; defaults to the table name during binding.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name the rest of the query uses to refer to this factor.
    pub fn effective_alias(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// An explicit `JOIN ... ON ...` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined table.
    pub table: TableRef,
    /// The `ON` condition.
    pub on: Expr,
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Sort expression.
    pub expr: Expr,
    /// Ascending (`true`, default) or descending.
    pub asc: bool,
}

/// Literal values appearing in SQL text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Floating point literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(String),
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// `NULL`.
    Null,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOperator {
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Multiply,
    /// `/`
    Divide,
}

impl BinaryOperator {
    /// Whether the operator is a comparison producing a boolean.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOperator::Eq
                | BinaryOperator::NotEq
                | BinaryOperator::Lt
                | BinaryOperator::LtEq
                | BinaryOperator::Gt
                | BinaryOperator::GtEq
        )
    }

    /// SQL spelling of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinaryOperator::Eq => "=",
            BinaryOperator::NotEq => "<>",
            BinaryOperator::Lt => "<",
            BinaryOperator::LtEq => "<=",
            BinaryOperator::Gt => ">",
            BinaryOperator::GtEq => ">=",
            BinaryOperator::And => "AND",
            BinaryOperator::Or => "OR",
            BinaryOperator::Plus => "+",
            BinaryOperator::Minus => "-",
            BinaryOperator::Multiply => "*",
            BinaryOperator::Divide => "/",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOperator {
    /// `NOT`
    Not,
    /// unary `-`
    Minus,
}

/// An SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A possibly-qualified column reference `table.column` or `column`.
    Column {
        /// Optional table / alias qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// A literal value.
    Literal(Literal),
    /// Parameter slot of a query shape: a literal
    /// [`crate::lexer::lift_literals`] took out of the text, bound to a value
    /// by [`crate::Binder::with_params`].
    Param(usize),
    /// Binary operation.
    BinaryOp {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOperator,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    UnaryOp {
        /// Operator.
        op: UnaryOperator,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// The list of alternatives.
        list: Vec<Expr>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `NOT BETWEEN` when true.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'`.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern (with `%` and `_` wildcards).
        pattern: Box<Expr>,
        /// `NOT LIKE` when true.
        negated: bool,
    },
    /// Function call, e.g. an aggregate `SUM(x)` or `COUNT(*)`.
    Function {
        /// Function name (upper-cased by the parser).
        name: String,
        /// Arguments; empty plus `wildcard` for `COUNT(*)`.
        args: Vec<Expr>,
        /// `DISTINCT` inside the call.
        distinct: bool,
        /// `COUNT(*)` marker.
        wildcard: bool,
    },
}

impl Expr {
    /// Shorthand for an unqualified column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            table: None,
            name: name.to_string(),
        }
    }

    /// Shorthand for a qualified column reference.
    pub fn qcol(table: &str, name: &str) -> Expr {
        Expr::Column {
            table: Some(table.to_string()),
            name: name.to_string(),
        }
    }

    /// Shorthand for an equality between two expressions.
    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(left),
            op: BinaryOperator::Eq,
            right: Box::new(right),
        }
    }

    /// Shorthand for conjunction.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(left),
            op: BinaryOperator::And,
            right: Box::new(right),
        }
    }

    /// Whether the expression contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, .. } => {
                matches!(name.as_str(), "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
            }
            Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) => false,
            Expr::BinaryOp { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::UnaryOp { expr, .. } => expr.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(|e| e.contains_aggregate())
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => write!(f, "{x}"),
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Literal::Null => write!(f, "NULL"),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { table, name } => match table {
                Some(t) => write!(f, "{t}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Param(slot) => write!(f, "?{slot}"),
            Expr::BinaryOp { left, op, right } => write!(f, "({left} {} {right})", op.symbol()),
            Expr::UnaryOp { op, expr } => match op {
                UnaryOperator::Not => write!(f, "(NOT {expr})"),
                UnaryOperator::Minus => write!(f, "(-{expr})"),
            },
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "({expr} {}IN ({}))",
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Function {
                name,
                args,
                distinct,
                wildcard,
            } => {
                if *wildcard {
                    write!(f, "{name}(*)")
                } else {
                    let items: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                    write!(
                        f,
                        "{name}({}{})",
                        if *distinct { "DISTINCT " } else { "" },
                        items.join(", ")
                    )
                }
            }
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::QualifiedWildcard(t) => write!(f, "{t}.*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => write!(f, "{expr} AS {a}"),
                None => write!(f, "{expr}"),
            },
        }
    }
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        let proj: Vec<String> = self.projection.iter().map(|p| p.to_string()).collect();
        write!(f, "{}", proj.join(", "))?;
        if !self.from.is_empty() {
            let from: Vec<String> = self
                .from
                .iter()
                .map(|t| match &t.alias {
                    Some(a) => format!("{} {a}", t.name),
                    None => t.name.clone(),
                })
                .collect();
            write!(f, " FROM {}", from.join(", "))?;
        }
        for j in &self.joins {
            let t = match &j.table.alias {
                Some(a) => format!("{} {a}", j.table.name),
                None => j.table.name.clone(),
            };
            write!(f, " JOIN {t} ON {}", j.on)?;
        }
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            let g: Vec<String> = self.group_by.iter().map(|e| e.to_string()).collect();
            write!(f, " GROUP BY {}", g.join(", "))?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            let o: Vec<String> = self
                .order_by
                .iter()
                .map(|i| format!("{}{}", i.expr, if i.asc { "" } else { " DESC" }))
                .collect();
            write!(f, " ORDER BY {}", o.join(", "))?;
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_helpers_and_display() {
        let e = Expr::and(
            Expr::eq(Expr::qcol("call", "pnum"), Expr::qcol("package", "pnum")),
            Expr::eq(
                Expr::col("date"),
                Expr::Literal(Literal::Str("2016-07-04".into())),
            ),
        );
        let s = e.to_string();
        assert!(s.contains("call.pnum = package.pnum"));
        assert!(s.contains("'2016-07-04'"));
        assert!(!e.contains_aggregate());
    }

    #[test]
    fn aggregate_detection() {
        let e = Expr::Function {
            name: "COUNT".into(),
            args: vec![],
            distinct: false,
            wildcard: true,
        };
        assert!(e.contains_aggregate());
        assert_eq!(e.to_string(), "COUNT(*)");
        let e2 = Expr::BinaryOp {
            left: Box::new(e),
            op: BinaryOperator::Gt,
            right: Box::new(Expr::Literal(Literal::Int(5))),
        };
        assert!(e2.contains_aggregate());
    }

    #[test]
    fn select_display() {
        let stmt = SelectStatement {
            distinct: true,
            projection: vec![SelectItem::Expr {
                expr: Expr::qcol("call", "region"),
                alias: None,
            }],
            from: vec![
                TableRef {
                    name: "call".into(),
                    alias: None,
                },
                TableRef {
                    name: "business".into(),
                    alias: Some("b".into()),
                },
            ],
            joins: vec![],
            selection: Some(Expr::eq(
                Expr::qcol("b", "pnum"),
                Expr::qcol("call", "pnum"),
            )),
            group_by: vec![],
            having: None,
            order_by: vec![OrderByItem {
                expr: Expr::qcol("call", "region"),
                asc: false,
            }],
            limit: Some(10),
        };
        let s = stmt.to_string();
        assert!(s.starts_with("SELECT DISTINCT call.region FROM call, business b WHERE"));
        assert!(s.ends_with("ORDER BY call.region DESC LIMIT 10"));
    }

    #[test]
    fn literal_display_escapes_quotes() {
        assert_eq!(Literal::Str("o'brien".into()).to_string(), "'o''brien'");
        assert_eq!(Literal::Null.to_string(), "NULL");
        assert_eq!(Literal::Bool(true).to_string(), "TRUE");
    }

    #[test]
    fn effective_alias() {
        let t = TableRef {
            name: "call".into(),
            alias: None,
        };
        assert_eq!(t.effective_alias(), "call");
        let t2 = TableRef {
            name: "call".into(),
            alias: Some("c".into()),
        };
        assert_eq!(t2.effective_alias(), "c");
    }
}
