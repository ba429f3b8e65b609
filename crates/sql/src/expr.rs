//! Bound expressions and their evaluation.
//!
//! A [`BoundExpr`] is an expression whose column references have been
//! resolved to offsets into a row of a known [`beas_common::Schema`].  Both
//! the baseline
//! engine and the bounded plan executor evaluate the same bound expressions,
//! which keeps answer semantics identical between the two paths — an
//! invariant the property tests rely on.

use crate::ast::BinaryOperator;
use beas_common::{BeasError, DataType, Result, Value, ValueRow};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;

/// An expression bound to a fixed input schema.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Reference to column `i` of the input row.
    Column(usize),
    /// A constant.
    Literal(Value),
    /// Parameter `slot` of a query shape with the value bound to it.  It
    /// evaluates like a [`BoundExpr::Literal`]; the slot is what lets a
    /// plan prepared once per shape be re-bound to the values of another
    /// statement ([`BoundExpr::bind_params`]).
    Param {
        /// Position in the shape's parameter vector.
        slot: usize,
        /// The value bound to it.
        value: Value,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOperator,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Logical NOT.
    Not(Box<BoundExpr>),
    /// Numeric negation.
    Negate(Box<BoundExpr>),
    /// `IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Negated?
        negated: bool,
    },
    /// `[NOT] IN (...)` with constant or expression alternatives.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// List of alternatives.
        list: Vec<BoundExpr>,
        /// Negated?
        negated: bool,
    },
    /// `[NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Inclusive lower bound.
        low: Box<BoundExpr>,
        /// Inclusive upper bound.
        high: Box<BoundExpr>,
        /// Negated?
        negated: bool,
    },
    /// `[NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Pattern expression (usually a literal).
        pattern: Box<BoundExpr>,
        /// Negated?
        negated: bool,
    },
}

impl BoundExpr {
    /// Column indices referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            BoundExpr::Column(i) => out.push(*i),
            BoundExpr::Literal(_) | BoundExpr::Param { .. } => {}
            BoundExpr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            BoundExpr::Not(e) | BoundExpr::Negate(e) => e.collect_columns(out),
            BoundExpr::IsNull { expr, .. } => expr.collect_columns(out),
            BoundExpr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            BoundExpr::Like { expr, pattern, .. } => {
                expr.collect_columns(out);
                pattern.collect_columns(out);
            }
        }
    }

    /// Rewrite column indices through `mapping` (old index -> new index).
    /// Returns `None` if the expression references a column not in `mapping`.
    pub fn remap_columns(
        &self,
        mapping: &std::collections::HashMap<usize, usize>,
    ) -> Option<BoundExpr> {
        Some(match self {
            BoundExpr::Column(i) => BoundExpr::Column(*mapping.get(i)?),
            BoundExpr::Literal(_) | BoundExpr::Param { .. } => self.clone(),
            BoundExpr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(left.remap_columns(mapping)?),
                right: Box::new(right.remap_columns(mapping)?),
            },
            BoundExpr::Not(e) => BoundExpr::Not(Box::new(e.remap_columns(mapping)?)),
            BoundExpr::Negate(e) => BoundExpr::Negate(Box::new(e.remap_columns(mapping)?)),
            BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(expr.remap_columns(mapping)?),
                negated: *negated,
            },
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(expr.remap_columns(mapping)?),
                list: list
                    .iter()
                    .map(|e| e.remap_columns(mapping))
                    .collect::<Option<Vec<_>>>()?,
                negated: *negated,
            },
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(expr.remap_columns(mapping)?),
                low: Box::new(low.remap_columns(mapping)?),
                high: Box::new(high.remap_columns(mapping)?),
                negated: *negated,
            },
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: Box::new(expr.remap_columns(mapping)?),
                pattern: Box::new(pattern.remap_columns(mapping)?),
                negated: *negated,
            },
        })
    }
}

impl BoundExpr {
    /// A copy of the expression with every leaf — column, literal or
    /// parameter — replaced by what `leaf` makes of it.
    pub fn map_leaves(&self, leaf: &impl Fn(&BoundExpr) -> BoundExpr) -> BoundExpr {
        let map = |e: &BoundExpr| Box::new(e.map_leaves(leaf));
        match self {
            BoundExpr::Column(_) | BoundExpr::Literal(_) | BoundExpr::Param { .. } => leaf(self),
            BoundExpr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: map(left),
                right: map(right),
            },
            BoundExpr::Not(e) => BoundExpr::Not(map(e)),
            BoundExpr::Negate(e) => BoundExpr::Negate(map(e)),
            BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: map(expr),
                negated: *negated,
            },
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: map(expr),
                list: list.iter().map(|e| e.map_leaves(leaf)).collect(),
                negated: *negated,
            },
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: map(expr),
                low: map(low),
                high: map(high),
                negated: *negated,
            },
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: map(expr),
                pattern: map(pattern),
                negated: *negated,
            },
        }
    }

    /// A copy of the expression with every parameter turned into the
    /// literal `values` holds for its slot.
    ///
    /// Panics when a slot lies outside `values`: the caller pairs a shape
    /// with the values lifted from a statement of that shape.
    pub fn bind_params(&self, values: &[Value]) -> BoundExpr {
        self.map_leaves(&|e| match e {
            BoundExpr::Param { slot, .. } => BoundExpr::Literal(values[*slot].clone()),
            other => other.clone(),
        })
    }

    /// The value of a constant leaf, and the parameter slot it fills if it
    /// fills one.
    pub fn as_constant(&self) -> Option<(&Value, Option<usize>)> {
        match self {
            BoundExpr::Literal(value) => Some((value, None)),
            BoundExpr::Param { slot, value } => Some((value, Some(*slot))),
            _ => None,
        }
    }
}

impl fmt::Display for BoundExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundExpr::Column(i) => write!(f, "#{i}"),
            BoundExpr::Literal(v) | BoundExpr::Param { value: v, .. } => write!(f, "{v}"),
            BoundExpr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            BoundExpr::Not(e) => write!(f, "(NOT {e})"),
            BoundExpr::Negate(e) => write!(f, "(-{e})"),
            BoundExpr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            BoundExpr::InList {
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
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
        }
    }
}

/// Evaluate a bound expression against a row.
///
/// Generic over [`ValueRow`] so both executors can evaluate expressions
/// directly on their pipelined [`beas_common::RowRef`] rows as well as on
/// plain `Vec<Value>` rows, without materializing either.
pub fn evaluate<R: ValueRow + ?Sized>(expr: &BoundExpr, row: &R) -> Result<Value> {
    match expr {
        BoundExpr::Column(i) => row.value_at(*i).cloned().ok_or_else(|| {
            BeasError::execution(format!(
                "column #{i} out of bounds for row of arity {}",
                row.arity()
            ))
        }),
        BoundExpr::Literal(v) | BoundExpr::Param { value: v, .. } => Ok(v.clone()),
        BoundExpr::Binary { op, left, right } => {
            let l = evaluate(left, row)?;
            let r = evaluate(right, row)?;
            eval_binary(*op, &l, &r)
        }
        BoundExpr::Not(e) => {
            let v = evaluate(e, row)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(!b)),
                other => Err(BeasError::type_err(format!(
                    "NOT applied to non-boolean {}",
                    other.type_name()
                ))),
            }
        }
        BoundExpr::Negate(e) => {
            let v = evaluate(e, row)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(x) => Ok(Value::Float(-x)),
                other => Err(BeasError::type_err(format!(
                    "unary minus applied to {}",
                    other.type_name()
                ))),
            }
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = evaluate(expr, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = evaluate(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for alt in list {
                let a = evaluate(alt, row)?;
                match v.sql_eq(&a) {
                    Some(true) => return Ok(Value::Bool(!*negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = evaluate(expr, row)?;
            let lo = evaluate(low, row)?;
            let hi = evaluate(high, row)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let within = a != Ordering::Less && b != Ordering::Greater;
                    Ok(Value::Bool(within != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = evaluate(expr, row)?;
            let p = evaluate(pattern, row)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let matched = like_match(v.as_str()?, p.as_str()?);
            Ok(Value::Bool(matched != *negated))
        }
    }
}

/// Evaluate a predicate expression, treating NULL (unknown) as `false`.
pub fn evaluate_predicate<R: ValueRow + ?Sized>(expr: &BoundExpr, row: &R) -> Result<bool> {
    Ok(evaluate(expr, row)?.is_truthy())
}

fn eval_binary(op: BinaryOperator, l: &Value, r: &Value) -> Result<Value> {
    use BinaryOperator::*;
    match op {
        And => Ok(match (as_tristate(l)?, as_tristate(r)?) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        }),
        Or => Ok(match (as_tristate(l)?, as_tristate(r)?) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        }),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let cmp = l.sql_cmp(r);
            Ok(match cmp {
                None => {
                    if l.is_null() || r.is_null() {
                        Value::Null
                    } else {
                        return Err(BeasError::type_err(format!(
                            "cannot compare {} with {}",
                            l.type_name(),
                            r.type_name()
                        )));
                    }
                }
                Some(o) => Value::Bool(match op {
                    Eq => o == Ordering::Equal,
                    NotEq => o != Ordering::Equal,
                    Lt => o == Ordering::Less,
                    LtEq => o != Ordering::Greater,
                    Gt => o == Ordering::Greater,
                    GtEq => o != Ordering::Less,
                    _ => unreachable!(),
                }),
            })
        }
        Plus => l.add(r),
        Minus => l.sub(r),
        Multiply => l.mul(r),
        Divide => l.div(r),
    }
}

fn as_tristate(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(BeasError::type_err(format!(
            "expected BOOLEAN in logical expression, got {}",
            other.type_name()
        ))),
    }
}

/// SQL `LIKE` matching with `%` (any substring) and `_` (any character).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => (0..=s.len()).any(|i| rec(&s[i..], rest)),
            Some(('_', rest)) => match s.split_first() {
                Some((_, srest)) => rec(srest, rest),
                None => false,
            },
            Some((c, rest)) => match s.split_first() {
                Some((sc, srest)) if sc == c => rec(srest, rest),
                _ => false,
            },
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

/// Aggregate functions supported by the engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunction {
    /// `COUNT(expr)` / `COUNT(*)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl AggregateFunction {
    /// Parse a function name into an aggregate, if it is one.
    pub fn from_name(name: &str) -> Option<AggregateFunction> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggregateFunction::Count,
            "SUM" => AggregateFunction::Sum,
            "AVG" => AggregateFunction::Avg,
            "MIN" => AggregateFunction::Min,
            "MAX" => AggregateFunction::Max,
            _ => return None,
        })
    }

    /// Output type of the aggregate given its input type.
    pub fn output_type(&self, input: Option<DataType>) -> DataType {
        match self {
            AggregateFunction::Count => DataType::Int,
            AggregateFunction::Avg => DataType::Float,
            AggregateFunction::Sum => match input {
                Some(DataType::Float) => DataType::Float,
                _ => DataType::Int,
            },
            AggregateFunction::Min | AggregateFunction::Max => input.unwrap_or(DataType::Int),
        }
    }

    /// Canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFunction::Count => "COUNT",
            AggregateFunction::Sum => "SUM",
            AggregateFunction::Avg => "AVG",
            AggregateFunction::Min => "MIN",
            AggregateFunction::Max => "MAX",
        }
    }
}

impl fmt::Display for AggregateFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Running state for one aggregate over one group.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggregateFunction,
    distinct: bool,
    // beas-lint: allow(L002) -- DISTINCT de-dupes evaluated SQL values under
    // SQL equality, not join/index keys; canonicalizing here would merge
    // values SQL treats as distinct
    seen: HashSet<Value>,
    count: i64,
    sum: Value,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    /// Create an accumulator for `func`, optionally de-duplicating inputs.
    pub fn new(func: AggregateFunction, distinct: bool) -> Self {
        Accumulator {
            func,
            distinct,
            seen: HashSet::new(),
            count: 0,
            sum: Value::Int(0),
            min: None,
            max: None,
        }
    }

    /// Fold one input value into the accumulator.  NULLs are ignored, per SQL.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        if self.distinct && !self.seen.insert(v.clone()) {
            return Ok(());
        }
        self.count += 1;
        match self.func {
            AggregateFunction::Count => {}
            AggregateFunction::Sum | AggregateFunction::Avg => {
                self.sum = self.sum.add(v)?;
            }
            AggregateFunction::Min => {
                let replace = match &self.min {
                    None => true,
                    Some(m) => v.total_cmp(m) == Ordering::Less,
                };
                if replace {
                    self.min = Some(v.clone());
                }
            }
            AggregateFunction::Max => {
                let replace = match &self.max {
                    None => true,
                    Some(m) => v.total_cmp(m) == Ordering::Greater,
                };
                if replace {
                    self.max = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Produce the final aggregate value.
    pub fn finish(&self) -> Value {
        match self.func {
            AggregateFunction::Count => Value::Int(self.count),
            AggregateFunction::Sum => {
                if self.count == 0 {
                    Value::Null
                } else {
                    self.sum.clone()
                }
            }
            AggregateFunction::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    // count > 0, so division cannot fail
                    self.sum.div(&Value::Int(self.count)).unwrap_or(Value::Null)
                }
            }
            AggregateFunction::Min => self.min.clone().unwrap_or(Value::Null),
            AggregateFunction::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::str("bank"),
            Value::Null,
            Value::Float(2.5),
        ]
    }

    #[test]
    fn evaluate_columns_and_literals() {
        assert_eq!(
            evaluate(&BoundExpr::Column(0), &row()).unwrap(),
            Value::Int(10)
        );
        assert!(evaluate(&BoundExpr::Column(9), &row()).is_err());
        assert_eq!(
            evaluate(&BoundExpr::Literal(Value::str("x")), &row()).unwrap(),
            Value::str("x")
        );
    }

    #[test]
    fn evaluate_comparisons_and_logic() {
        let e = BoundExpr::Binary {
            op: BinaryOperator::And,
            left: Box::new(BoundExpr::Binary {
                op: BinaryOperator::Gt,
                left: Box::new(BoundExpr::Column(0)),
                right: Box::new(BoundExpr::Literal(Value::Int(5))),
            }),
            right: Box::new(BoundExpr::Binary {
                op: BinaryOperator::Eq,
                left: Box::new(BoundExpr::Column(1)),
                right: Box::new(BoundExpr::Literal(Value::str("bank"))),
            }),
        };
        assert!(evaluate_predicate(&e, &row()).unwrap());
    }

    #[test]
    fn null_three_valued_logic() {
        // NULL AND false = false, NULL AND true = NULL, NULL OR true = true
        let null = BoundExpr::Literal(Value::Null);
        let lit_true = BoundExpr::Literal(Value::Bool(true));
        let lit_false = BoundExpr::Literal(Value::Bool(false));
        // NULL = 3 produces NULL
        let null_cmp = BoundExpr::Binary {
            op: BinaryOperator::Eq,
            left: Box::new(null.clone()),
            right: Box::new(BoundExpr::Literal(Value::Int(3))),
        };
        assert_eq!(evaluate(&null_cmp, &[]).unwrap(), Value::Null);
        let and_false = BoundExpr::Binary {
            op: BinaryOperator::And,
            left: Box::new(null_cmp.clone()),
            right: Box::new(lit_false),
        };
        assert_eq!(evaluate(&and_false, &[]).unwrap(), Value::Bool(false));
        let or_true = BoundExpr::Binary {
            op: BinaryOperator::Or,
            left: Box::new(null_cmp.clone()),
            right: Box::new(lit_true.clone()),
        };
        assert_eq!(evaluate(&or_true, &[]).unwrap(), Value::Bool(true));
        let and_true = BoundExpr::Binary {
            op: BinaryOperator::And,
            left: Box::new(null_cmp),
            right: Box::new(lit_true),
        };
        assert_eq!(evaluate(&and_true, &[]).unwrap(), Value::Null);
    }

    #[test]
    fn is_null_in_list_between_like() {
        let isnull = BoundExpr::IsNull {
            expr: Box::new(BoundExpr::Column(2)),
            negated: false,
        };
        assert!(evaluate_predicate(&isnull, &row()).unwrap());
        let inlist = BoundExpr::InList {
            expr: Box::new(BoundExpr::Column(1)),
            list: vec![
                BoundExpr::Literal(Value::str("bank")),
                BoundExpr::Literal(Value::str("hospital")),
            ],
            negated: false,
        };
        assert!(evaluate_predicate(&inlist, &row()).unwrap());
        let between = BoundExpr::Between {
            expr: Box::new(BoundExpr::Column(0)),
            low: Box::new(BoundExpr::Literal(Value::Int(1))),
            high: Box::new(BoundExpr::Literal(Value::Int(10))),
            negated: false,
        };
        assert!(evaluate_predicate(&between, &row()).unwrap());
        let like = BoundExpr::Like {
            expr: Box::new(BoundExpr::Column(1)),
            pattern: Box::new(BoundExpr::Literal(Value::str("ba%"))),
            negated: false,
        };
        assert!(evaluate_predicate(&like, &row()).unwrap());
    }

    #[test]
    fn in_list_null_semantics() {
        // 1 IN (2, NULL) is NULL (unknown), 1 NOT IN (2, NULL) is NULL too.
        let e = BoundExpr::InList {
            expr: Box::new(BoundExpr::Literal(Value::Int(1))),
            list: vec![
                BoundExpr::Literal(Value::Int(2)),
                BoundExpr::Literal(Value::Null),
            ],
            negated: false,
        };
        assert_eq!(evaluate(&e, &[]).unwrap(), Value::Null);
    }

    #[test]
    fn like_matching() {
        assert!(like_match("hello", "he%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "He%"));
        assert!(!like_match("hello", "h_x%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
    }

    #[test]
    fn accumulators() {
        let vals = [Value::Int(3), Value::Int(1), Value::Null, Value::Int(3)];
        let mut count = Accumulator::new(AggregateFunction::Count, false);
        let mut count_d = Accumulator::new(AggregateFunction::Count, true);
        let mut sum = Accumulator::new(AggregateFunction::Sum, false);
        let mut avg = Accumulator::new(AggregateFunction::Avg, false);
        let mut min = Accumulator::new(AggregateFunction::Min, false);
        let mut max = Accumulator::new(AggregateFunction::Max, false);
        for v in &vals {
            for acc in [
                &mut count,
                &mut count_d,
                &mut sum,
                &mut avg,
                &mut min,
                &mut max,
            ] {
                acc.update(v).unwrap();
            }
        }
        assert_eq!(count.finish(), Value::Int(3)); // NULL ignored
        assert_eq!(count_d.finish(), Value::Int(2)); // distinct {3, 1}
        assert_eq!(sum.finish(), Value::Int(7));
        assert_eq!(avg.finish(), Value::Float(7.0 / 3.0));
        assert_eq!(min.finish(), Value::Int(1));
        assert_eq!(max.finish(), Value::Int(3));
    }

    #[test]
    fn empty_group_aggregates() {
        assert_eq!(
            Accumulator::new(AggregateFunction::Count, false).finish(),
            Value::Int(0)
        );
        assert!(Accumulator::new(AggregateFunction::Sum, false)
            .finish()
            .is_null());
        assert!(Accumulator::new(AggregateFunction::Avg, false)
            .finish()
            .is_null());
        assert!(Accumulator::new(AggregateFunction::Min, false)
            .finish()
            .is_null());
    }

    #[test]
    fn aggregate_function_metadata() {
        assert_eq!(
            AggregateFunction::from_name("count"),
            Some(AggregateFunction::Count)
        );
        assert_eq!(AggregateFunction::from_name("median"), None);
        assert_eq!(AggregateFunction::Count.output_type(None), DataType::Int);
        assert_eq!(
            AggregateFunction::Sum.output_type(Some(DataType::Float)),
            DataType::Float
        );
        assert_eq!(
            AggregateFunction::Min.output_type(Some(DataType::Str)),
            DataType::Str
        );
    }

    #[test]
    fn referenced_columns_and_remap() {
        let e = BoundExpr::Binary {
            op: BinaryOperator::And,
            left: Box::new(BoundExpr::Binary {
                op: BinaryOperator::Eq,
                left: Box::new(BoundExpr::Column(3)),
                right: Box::new(BoundExpr::Column(1)),
            }),
            right: Box::new(BoundExpr::IsNull {
                expr: Box::new(BoundExpr::Column(3)),
                negated: true,
            }),
        };
        assert_eq!(e.referenced_columns(), vec![1, 3]);
        let mut map = std::collections::HashMap::new();
        map.insert(1usize, 0usize);
        map.insert(3usize, 1usize);
        let remapped = e.remap_columns(&map).unwrap();
        assert_eq!(remapped.referenced_columns(), vec![0, 1]);
        map.remove(&1);
        assert!(e.remap_columns(&map).is_none());
    }

    #[test]
    fn display_bound_expr() {
        let e = BoundExpr::Binary {
            op: BinaryOperator::LtEq,
            left: Box::new(BoundExpr::Column(0)),
            right: Box::new(BoundExpr::Literal(Value::Int(7))),
        };
        assert_eq!(e.to_string(), "(#0 <= 7)");
    }

    #[test]
    fn type_errors_surface() {
        let e = BoundExpr::Binary {
            op: BinaryOperator::Lt,
            left: Box::new(BoundExpr::Literal(Value::str("a"))),
            right: Box::new(BoundExpr::Literal(Value::Int(1))),
        };
        assert!(evaluate(&e, &[]).is_err());
        let not_int = BoundExpr::Not(Box::new(BoundExpr::Literal(Value::Int(1))));
        assert!(evaluate(&not_int, &[]).is_err());
    }
}
