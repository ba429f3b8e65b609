//! Column-wise (vectorized) evaluation of bound expressions over a
//! [`ColumnBatch`].
//!
//! The row evaluator in [`crate::expr`] is the semantics reference; every
//! kernel here must satisfy two obligations, which together let the engine
//! fall back to the row path per morsel with no observable difference
//! (`tests/vectorized_semantics.rs` pins this differentially):
//!
//! 1. **No under-erroring** — whenever the row path would error on any row
//!    of the selection, the kernel must also return an error (the caller
//!    then discards the batch output and re-runs the morsel row-by-row, so
//!    the error *message and position* always come from the row path; kernel
//!    error text is never user-visible).  Kernels may over-error — e.g.
//!    `IN` lists are evaluated eagerly where the row path short-circuits —
//!    because over-erroring only costs the fallback re-run, never changes
//!    the answer.
//! 2. **Bit-exact success** — when the kernel succeeds, its output equals
//!    the row path's output value-for-value (`Int(1)` stays distinct from
//!    `Float(1.0)`, `-0.0` keeps its sign, NaN its payload semantics).
//!
//! Comparison kernels read operands through [`ValueRef`] — typed columns
//! materialize stack-only numeric `Value`s and generic columns hand out
//! borrowed references — so the hot filter loops never clone heap values
//! (the row path clones both operands of every comparison, which is the
//! dominant cost this module removes).
//!
//! `LIKE` is deliberately left uncovered ([`covers`] returns `false`): it
//! keeps a known whole-fragment static-fallback shape in the test matrix.

use crate::ast::BinaryOperator;
use crate::expr::BoundExpr;
use beas_common::{BeasError, Column, ColumnBatch, Result, Value, ValueRef};
use std::cmp::Ordering;

/// Whether the columnar kernels cover `expr` over inputs of `arity` columns.
///
/// Covered expressions can still error at evaluation time (type errors,
/// arithmetic); coverage only guarantees the kernel computes the same
/// success values as the row path.  Column bounds are checked here once so
/// the per-element kernels never see an out-of-bounds reference.
pub fn covers(expr: &BoundExpr, arity: usize) -> bool {
    match expr {
        BoundExpr::Column(i) => *i < arity,
        BoundExpr::Literal(_) | BoundExpr::Param { .. } => true,
        BoundExpr::Binary { left, right, .. } => covers(left, arity) && covers(right, arity),
        BoundExpr::Not(e) | BoundExpr::Negate(e) => covers(e, arity),
        BoundExpr::IsNull { expr, .. } => covers(expr, arity),
        BoundExpr::InList { expr, list, .. } => {
            covers(expr, arity) && list.iter().all(|e| covers(e, arity))
        }
        BoundExpr::Between {
            expr, low, high, ..
        } => covers(expr, arity) && covers(low, arity) && covers(high, arity),
        // LIKE stays on the row path: a deliberate coverage hole so the
        // static whole-fragment fallback keeps real traffic.
        BoundExpr::Like { .. } => false,
    }
}

/// Flag every column index `expr` references in `mask` (indices past the
/// mask length are ignored — [`covers`] rejects them before any kernel
/// runs).  The engine uses this to build [`ColumnBatch`]es that materialize
/// only referenced columns of wide tables.
pub fn collect_columns(expr: &BoundExpr, mask: &mut [bool]) {
    match expr {
        BoundExpr::Column(i) => {
            if let Some(slot) = mask.get_mut(*i) {
                *slot = true;
            }
        }
        BoundExpr::Literal(_) | BoundExpr::Param { .. } => {}
        BoundExpr::Binary { left, right, .. } => {
            collect_columns(left, mask);
            collect_columns(right, mask);
        }
        BoundExpr::Not(e) | BoundExpr::Negate(e) => collect_columns(e, mask),
        BoundExpr::IsNull { expr, .. } => collect_columns(expr, mask),
        BoundExpr::InList { expr, list, .. } => {
            collect_columns(expr, mask);
            for e in list {
                collect_columns(e, mask);
            }
        }
        BoundExpr::Between {
            expr, low, high, ..
        } => {
            collect_columns(expr, mask);
            collect_columns(low, mask);
            collect_columns(high, mask);
        }
        BoundExpr::Like { expr, pattern, .. } => {
            collect_columns(expr, mask);
            collect_columns(pattern, mask);
        }
    }
}

/// Filter kernel: the subset of `sel` on which `pred` evaluates truthy
/// (SQL `WHERE` semantics: NULL and non-`Bool(true)` rows drop out).
pub fn filter_sel(pred: &BoundExpr, batch: &ColumnBatch<'_>, sel: &[u32]) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    if logical_shape(pred) {
        // Logical shapes only produce Bool/NULL, so truthy ⇔ Some(true).
        let tri = eval_tristate(pred, batch, sel)?;
        for (pos, &row) in sel.iter().enumerate() {
            if tri[pos] == Some(true) {
                out.push(row);
            }
        }
    } else {
        // Column / literal / arithmetic roots: mirror `is_truthy` on the
        // materialized value (e.g. `WHERE 1` is falsy, not an error).
        let vals = eval_values(pred, batch, sel)?;
        for (pos, &row) in sel.iter().enumerate() {
            if vals[pos].is_truthy() {
                out.push(row);
            }
        }
    }
    Ok(out)
}

/// Evaluate `expr` to one owned [`Value`] per selected row — the projection
/// kernel, and the materialization path for operands that are not columns
/// or literals.
pub fn eval_values(expr: &BoundExpr, batch: &ColumnBatch<'_>, sel: &[u32]) -> Result<Vec<Value>> {
    match expr {
        BoundExpr::Column(i) => {
            let col = column(batch, *i)?;
            Ok(sel.iter().map(|&r| col.value_owned(r as usize)).collect())
        }
        BoundExpr::Literal(v) | BoundExpr::Param { value: v, .. } => Ok(vec![v.clone(); sel.len()]),
        BoundExpr::Binary { op, left, right } => match op {
            BinaryOperator::Plus
            | BinaryOperator::Minus
            | BinaryOperator::Multiply
            | BinaryOperator::Divide => {
                let l = operand(left, batch, sel)?;
                let r = operand(right, batch, sel)?;
                let mut out = Vec::with_capacity(sel.len());
                for (pos, &row) in sel.iter().enumerate() {
                    let lv = l.at(pos, row as usize);
                    let rv = r.at(pos, row as usize);
                    let (lv, rv) = (lv.get(), rv.get());
                    out.push(match op {
                        BinaryOperator::Plus => lv.add(rv)?,
                        BinaryOperator::Minus => lv.sub(rv)?,
                        BinaryOperator::Multiply => lv.mul(rv)?,
                        _ => lv.div(rv)?,
                    });
                }
                Ok(out)
            }
            _ => Ok(tristate_to_values(eval_tristate(expr, batch, sel)?)),
        },
        BoundExpr::Negate(e) => {
            let vals = operand(e, batch, sel)?;
            let mut out = Vec::with_capacity(sel.len());
            for (pos, &row) in sel.iter().enumerate() {
                out.push(match vals.at(pos, row as usize).get() {
                    Value::Null => Value::Null,
                    Value::Int(i) => Value::Int(-i),
                    Value::Float(x) => Value::Float(-x),
                    other => {
                        return Err(BeasError::type_err(format!(
                            "unary minus applied to {}",
                            other.type_name()
                        )))
                    }
                });
            }
            Ok(out)
        }
        // The remaining covered shapes (NOT, IS NULL, IN, BETWEEN) only
        // produce Bool/NULL; compute them as tristates and materialize.
        _ => Ok(tristate_to_values(eval_tristate(expr, batch, sel)?)),
    }
}

/// Evaluate a logical-shaped expression to one tristate per selected row
/// (`Some(bool)` ⇔ row path yields `Value::Bool`, `None` ⇔ `Value::Null`).
///
/// Non-logical expressions (columns, literals, arithmetic) are materialized
/// and folded through the same NULL/Bool/error rule as the row path's
/// `as_tristate`, so `AND`/`OR` over a non-boolean operand errors here too.
pub fn eval_tristate(
    expr: &BoundExpr,
    batch: &ColumnBatch<'_>,
    sel: &[u32],
) -> Result<Vec<Option<bool>>> {
    use BinaryOperator::*;
    match expr {
        BoundExpr::Binary { op, left, right } => match op {
            And => {
                // The row path evaluates both operands unconditionally
                // (no short-circuit), so evaluating both over the full
                // selection preserves error behavior exactly.
                let lt = eval_tristate(left, batch, sel)?;
                let rt = eval_tristate(right, batch, sel)?;
                Ok(lt
                    .into_iter()
                    .zip(rt)
                    .map(|(a, b)| match (a, b) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    })
                    .collect())
            }
            Or => {
                let lt = eval_tristate(left, batch, sel)?;
                let rt = eval_tristate(right, batch, sel)?;
                Ok(lt
                    .into_iter()
                    .zip(rt)
                    .map(|(a, b)| match (a, b) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    })
                    .collect())
            }
            Eq | NotEq | Lt | LtEq | Gt | GtEq => {
                let l = operand(left, batch, sel)?;
                let r = operand(right, batch, sel)?;
                let mut out = Vec::with_capacity(sel.len());
                for (pos, &row) in sel.iter().enumerate() {
                    let lv = l.at(pos, row as usize);
                    let rv = r.at(pos, row as usize);
                    let (lv, rv) = (lv.get(), rv.get());
                    out.push(match lv.sql_cmp(rv) {
                        None => {
                            if lv.is_null() || rv.is_null() {
                                None
                            } else {
                                return Err(BeasError::type_err(format!(
                                    "cannot compare {} with {}",
                                    lv.type_name(),
                                    rv.type_name()
                                )));
                            }
                        }
                        Some(o) => Some(match op {
                            Eq => o == Ordering::Equal,
                            NotEq => o != Ordering::Equal,
                            Lt => o == Ordering::Less,
                            LtEq => o != Ordering::Greater,
                            Gt => o == Ordering::Greater,
                            _ => o != Ordering::Less,
                        }),
                    });
                }
                Ok(out)
            }
            Plus | Minus | Multiply | Divide => tristate_of_values(eval_values(expr, batch, sel)?),
        },
        BoundExpr::Not(e) => {
            // Same NULL/Bool/error domain as the row path's NOT.
            let tri = eval_tristate(e, batch, sel)?;
            Ok(tri.into_iter().map(|t| t.map(|b| !b)).collect())
        }
        BoundExpr::IsNull { expr, negated } => {
            if let BoundExpr::Column(i) = expr.as_ref() {
                // Fast path: IS NULL of a column reads the validity bitmap.
                let col = column(batch, *i)?;
                return Ok(sel
                    .iter()
                    .map(|&r| Some(col.is_valid(r as usize) == *negated))
                    .collect());
            }
            let vals = operand(expr, batch, sel)?;
            Ok(sel
                .iter()
                .enumerate()
                .map(|(pos, &row)| Some(vals.at(pos, row as usize).get().is_null() != *negated))
                .collect())
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = operand(expr, batch, sel)?;
            // Eager alternative evaluation: may error where the row path
            // short-circuits after an earlier match — an allowed
            // over-error (the fallback re-run restores row semantics).
            let alts = list
                .iter()
                .map(|alt| operand(alt, batch, sel))
                .collect::<Result<Vec<_>>>()?;
            let mut out = Vec::with_capacity(sel.len());
            for (pos, &row) in sel.iter().enumerate() {
                let vv = v.at(pos, row as usize);
                let vv = vv.get();
                if vv.is_null() {
                    out.push(None);
                    continue;
                }
                let mut saw_null = false;
                let mut verdict = Some(*negated);
                for alt in &alts {
                    match vv.sql_eq(alt.at(pos, row as usize).get()) {
                        Some(true) => {
                            verdict = Some(!*negated);
                            break;
                        }
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if verdict == Some(*negated) && saw_null {
                    verdict = None;
                }
                out.push(verdict);
            }
            Ok(out)
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = operand(expr, batch, sel)?;
            let lo = operand(low, batch, sel)?;
            let hi = operand(high, batch, sel)?;
            let mut out = Vec::with_capacity(sel.len());
            for (pos, &row) in sel.iter().enumerate() {
                let vv = v.at(pos, row as usize);
                let lv = lo.at(pos, row as usize);
                let hv = hi.at(pos, row as usize);
                let vv = vv.get();
                out.push(match (vv.sql_cmp(lv.get()), vv.sql_cmp(hv.get())) {
                    (Some(a), Some(b)) => {
                        let within = a != Ordering::Less && b != Ordering::Greater;
                        Some(within != *negated)
                    }
                    _ => None,
                });
            }
            Ok(out)
        }
        // Column / Literal / Negate / Like roots in a tristate context:
        // materialize and apply the row path's as_tristate rule.
        _ => tristate_of_values(eval_values(expr, batch, sel)?),
    }
}

/// Expression shapes whose results are always Bool/NULL — for these,
/// `is_truthy` coincides with tristate `Some(true)`.
fn logical_shape(expr: &BoundExpr) -> bool {
    use BinaryOperator::*;
    match expr {
        BoundExpr::Binary { op, .. } => !matches!(op, Plus | Minus | Multiply | Divide),
        BoundExpr::Not(_)
        | BoundExpr::IsNull { .. }
        | BoundExpr::InList { .. }
        | BoundExpr::Between { .. }
        | BoundExpr::Like { .. } => true,
        BoundExpr::Column(_)
        | BoundExpr::Literal(_)
        | BoundExpr::Param { .. }
        | BoundExpr::Negate(_) => false,
    }
}

/// One evaluated operand: a borrowed column, a shared literal, or a
/// materialized vector (one value per selection position).
enum Vals<'b, 'a> {
    Col(&'b Column<'a>),
    Lit(&'b Value),
    Owned(Vec<Value>),
}

impl Vals<'_, '_> {
    /// The operand value for selection position `pos` (= row `row` of the
    /// batch).  No heap clone on any variant.
    fn at(&self, pos: usize, row: usize) -> ValueRef<'_> {
        match self {
            Vals::Col(c) => c.value_ref(row),
            Vals::Lit(v) => ValueRef::Ref(v),
            Vals::Owned(vals) => ValueRef::Ref(&vals[pos]),
        }
    }
}

/// Prepare an operand for per-element kernels: columns and literals are
/// borrowed in place, everything else is materialized via [`eval_values`].
fn operand<'b, 'a>(
    expr: &'b BoundExpr,
    batch: &'b ColumnBatch<'a>,
    sel: &[u32],
) -> Result<Vals<'b, 'a>> {
    match expr {
        BoundExpr::Column(i) => Ok(Vals::Col(column(batch, *i)?)),
        BoundExpr::Literal(v) | BoundExpr::Param { value: v, .. } => Ok(Vals::Lit(v)),
        _ => Ok(Vals::Owned(eval_values(expr, batch, sel)?)),
    }
}

fn column<'b, 'a>(batch: &'b ColumnBatch<'a>, i: usize) -> Result<&'b Column<'a>> {
    batch.column(i).ok_or_else(|| {
        BeasError::execution(format!(
            "column #{i} out of bounds for batch of arity {}",
            batch.arity()
        ))
    })
}

fn tristate_to_values(tri: Vec<Option<bool>>) -> Vec<Value> {
    tri.into_iter()
        .map(|t| t.map_or(Value::Null, Value::Bool))
        .collect()
}

/// Fold materialized values through the row path's `as_tristate` rule:
/// NULL ⇒ unknown, Bool ⇒ known, anything else is a type error.
fn tristate_of_values(vals: Vec<Value>) -> Result<Vec<Option<bool>>> {
    vals.into_iter()
        .map(|v| match v {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(b)),
            other => Err(BeasError::type_err(format!(
                "expected BOOLEAN in logical expression, got {}",
                other.type_name()
            ))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{evaluate, evaluate_predicate};
    use beas_common::{Date, Row};

    fn date(s: &str) -> Value {
        Value::Date(s.parse::<Date>().unwrap())
    }

    /// Mixed-type rows exercising every kernel edge the differential
    /// harness cares about: -0.0, NaN, Int-valued Float, date-shaped
    /// strings and NULLs.
    fn edge_rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::Float(0.0), Value::str("2016-07-04")],
            vec![Value::Int(2), Value::Float(-0.0), Value::str("east")],
            vec![Value::Null, Value::Float(f64::NAN), Value::Null],
            vec![Value::Int(4), Value::Null, Value::str("2016-99-99")],
            vec![Value::Int(5), Value::Float(5.0), Value::str("west")],
        ]
    }

    fn all_sel(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column(i)
    }

    fn lit(v: Value) -> BoundExpr {
        BoundExpr::Literal(v)
    }

    fn bin(op: BinaryOperator, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// The central obligation: on every covered expression, the kernel
    /// either errors (fallback territory) or matches the row evaluator
    /// value-for-value.  Debug formatting keeps Int/Float distinct and
    /// -0.0 / NaN textually visible.
    fn assert_kernel_matches_rows(expr: &BoundExpr, rows: &[Row]) {
        let arity = rows.first().map_or(0, |r| r.len());
        assert!(covers(expr, arity), "{expr} should be covered");
        let batch = ColumnBatch::from_rows(rows);
        batch.check_invariants().unwrap();
        let sel = all_sel(rows.len());
        let row_results: Vec<_> = rows.iter().map(|r| evaluate(expr, r.as_slice())).collect();
        match eval_values(expr, &batch, &sel) {
            Ok(vals) => {
                for (i, (kernel, row)) in vals.iter().zip(&row_results).enumerate() {
                    let row = row.as_ref().unwrap_or_else(|e| {
                        panic!("{expr}: kernel succeeded but row path errored on row {i}: {e}")
                    });
                    assert_eq!(
                        format!("{kernel:?}"),
                        format!("{row:?}"),
                        "{expr}: row {i} diverged"
                    );
                }
            }
            Err(_) => {
                // Over-erroring is allowed only when some row actually errors
                // under eager evaluation; for these expressions (no IN
                // short-circuit in play) the row path must error somewhere.
                assert!(
                    row_results.iter().any(|r| r.is_err()),
                    "{expr}: kernel errored but every row succeeded"
                );
            }
        }
        // Filter semantics agree with evaluate_predicate wherever the
        // kernel succeeds.
        if let Ok(kept) = filter_sel(expr, &batch, &sel) {
            let expected: Vec<u32> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| evaluate_predicate(expr, r.as_slice()).unwrap_or(false))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(kept, expected, "{expr}: filter selection diverged");
        }
    }

    #[test]
    fn comparison_kernels_match_row_path() {
        let rows = edge_rows();
        use BinaryOperator::*;
        for op in [Eq, NotEq, Lt, LtEq, Gt, GtEq] {
            // Int column vs Int literal, Float column vs Float literal
            // (NaN operand ⇒ NULL, -0.0 == 0.0), Str column vs str literal,
            // date-shaped string column vs Date literal coercion.
            assert_kernel_matches_rows(&bin(op, col(0), lit(Value::Int(3))), &rows);
            assert_kernel_matches_rows(&bin(op, col(1), lit(Value::Float(0.0))), &rows);
            assert_kernel_matches_rows(&bin(op, col(2), lit(Value::str("east"))), &rows);
            assert_kernel_matches_rows(&bin(op, col(2), lit(date("2016-07-04"))), &rows);
            // Column vs column across the Int/Float families.
            assert_kernel_matches_rows(&bin(op, col(0), col(1)), &rows);
            // Literal on the left.
            assert_kernel_matches_rows(&bin(op, lit(Value::Float(-0.0)), col(1)), &rows);
        }
    }

    #[test]
    fn logic_null_and_range_kernels_match_row_path() {
        let rows = edge_rows();
        use BinaryOperator::*;
        let cmp = |o, l, r| bin(o, l, r);
        assert_kernel_matches_rows(
            &bin(
                And,
                cmp(Gt, col(0), lit(Value::Int(1))),
                cmp(Lt, col(1), lit(Value::Float(1.0))),
            ),
            &rows,
        );
        assert_kernel_matches_rows(
            &bin(
                Or,
                cmp(Eq, col(2), lit(Value::str("east"))),
                cmp(Eq, col(0), lit(Value::Int(5))),
            ),
            &rows,
        );
        assert_kernel_matches_rows(&BoundExpr::Not(Box::new(cmp(Eq, col(0), col(1)))), &rows);
        for negated in [false, true] {
            assert_kernel_matches_rows(
                &BoundExpr::IsNull {
                    expr: Box::new(col(1)),
                    negated,
                },
                &rows,
            );
            assert_kernel_matches_rows(
                &BoundExpr::Between {
                    expr: Box::new(col(0)),
                    low: Box::new(lit(Value::Int(2))),
                    high: Box::new(lit(Value::Float(4.0))),
                    negated,
                },
                &rows,
            );
            assert_kernel_matches_rows(
                &BoundExpr::InList {
                    expr: Box::new(col(2)),
                    list: vec![
                        lit(Value::str("east")),
                        lit(date("2016-07-04")),
                        lit(Value::Null),
                    ],
                    negated,
                },
                &rows,
            );
        }
    }

    #[test]
    fn arithmetic_and_negate_kernels_match_row_path() {
        let rows = edge_rows();
        use BinaryOperator::*;
        for op in [Plus, Minus, Multiply, Divide] {
            assert_kernel_matches_rows(&bin(op, col(0), col(1)), &rows);
            assert_kernel_matches_rows(&bin(op, col(1), lit(Value::Float(2.0))), &rows);
        }
        assert_kernel_matches_rows(&BoundExpr::Negate(Box::new(col(1))), &rows);
        // Projection of the raw columns: Int stays Int, -0.0 keeps its
        // sign, NULL slots come back as NULL.
        assert_kernel_matches_rows(&col(0), &rows);
        assert_kernel_matches_rows(&col(1), &rows);
        assert_kernel_matches_rows(&col(2), &rows);
    }

    #[test]
    fn type_errors_surface_as_kernel_errors() {
        let rows = edge_rows();
        let batch = ColumnBatch::from_rows(&rows);
        let sel = all_sel(rows.len());
        // Str vs Int comparison is a type error on row 2 ("east" vs 3).
        let e = bin(BinaryOperator::Gt, col(2), lit(Value::Int(3)));
        assert!(eval_values(&e, &batch, &sel).is_err());
        assert!(filter_sel(&e, &batch, &sel).is_err());
        // AND over a non-boolean operand errors like as_tristate.
        let e = bin(BinaryOperator::And, col(0), lit(Value::Bool(true)));
        assert!(eval_tristate(&e, &batch, &sel).is_err());
    }

    #[test]
    fn like_and_out_of_bounds_are_uncovered() {
        let like = BoundExpr::Like {
            expr: Box::new(col(2)),
            pattern: Box::new(lit(Value::str("e%"))),
            negated: false,
        };
        assert!(!covers(&like, 3));
        assert!(covers(&col(2), 3));
        assert!(!covers(&col(3), 3));
        assert!(!covers(&bin(BinaryOperator::Eq, col(0), col(7)), 3));
    }

    #[test]
    fn selection_vectors_compose() {
        // Chained filters reuse the shrinking selection vector.
        let rows = edge_rows();
        let batch = ColumnBatch::from_rows(&rows);
        let sel = all_sel(rows.len());
        let not_null = BoundExpr::IsNull {
            expr: Box::new(col(0)),
            negated: true,
        };
        let sel = filter_sel(&not_null, &batch, &sel).unwrap();
        assert_eq!(sel, vec![0, 1, 3, 4]);
        let big = bin(BinaryOperator::GtEq, col(0), lit(Value::Int(2)));
        let sel = filter_sel(&big, &batch, &sel).unwrap();
        assert_eq!(sel, vec![1, 3, 4]);
        let vals = eval_values(&col(2), &batch, &sel).unwrap();
        assert_eq!(
            vals,
            vec![
                Value::str("east"),
                Value::str("2016-99-99"),
                Value::str("west")
            ]
        );
    }
}
