#![forbid(unsafe_code)]
//! # beas-sql
//!
//! SQL front end for the BEAS workspace: a hand-written lexer, a
//! recursive-descent parser for the SPJ + aggregate fragment the paper
//! targets, a binder that resolves names against a catalog, and an
//! expression evaluator shared by both the baseline engine and the bounded
//! plan executor.
//!
//! Supported SQL (the fragment exercised by the TLC benchmark and the demo):
//!
//! * `SELECT [DISTINCT] <exprs | *> FROM t1 [alias], t2 [alias], ... `
//!   (comma joins) and explicit `JOIN ... ON` / `INNER JOIN ... ON`;
//! * `WHERE` with `AND`/`OR`/`NOT`, comparisons, `BETWEEN`, `IN (...)`,
//!   `IS [NOT] NULL`, `LIKE`;
//! * aggregates `COUNT(*)`, `COUNT`, `SUM`, `AVG`, `MIN`, `MAX`
//!   (optionally `DISTINCT`), `GROUP BY`, `HAVING`;
//! * `ORDER BY ... [ASC|DESC]`, `LIMIT n`.

pub mod analysis;
pub mod ast;
pub mod binder;
pub mod columnar;
pub mod expr;
pub mod lexer;
pub mod parser;

pub use analysis::{classify_conjuncts, split_conjuncts, ConjunctClass, QueryShape};
pub use ast::{
    BinaryOperator, Expr, JoinClause, Literal, OrderByItem, SelectItem, SelectStatement, Statement,
    TableRef, UnaryOperator,
};
pub use binder::{Binder, BoundAggregate, BoundQuery, BoundTable, SchemaProvider};
pub use expr::{evaluate, evaluate_predicate, Accumulator, AggregateFunction, BoundExpr};
pub use lexer::{lift_literals, Keyword, Lexer, Token};
pub use parser::{parse_select, parse_statement, Parser};
