//! Bounded query plans.
//!
//! A bounded plan answers a query by a sequence of `fetch(X ∈ T, Y, R)`
//! operations, each controlled by an access constraint, followed by ordinary
//! relational operators — an engine [`LogicalPlan`] — over the (small)
//! fetched intermediates.  Every fetch
//! is annotated with an upper bound on the number of tuples it may access,
//! deduced from the cardinality constraints *before execution* — this is what
//! the demo's budget check (scenario 1(a)) and Fig. 2(B)'s annotated plans
//! show.

use beas_access::AccessConstraint;
use beas_common::{Result, Schema, Value};
use beas_engine::LogicalPlan;
use beas_sql::BoundExpr;
use std::fmt;
use std::sync::Arc;

/// Where the key values of a fetch come from.
#[derive(Debug, Clone, PartialEq)]
pub enum KeySource {
    /// A single constant from the query (e.g. `type = 't0'`).
    Constant(Value),
    /// A small set of constants from an `IN (...)` predicate.
    Constants(Vec<Value>),
    /// A column of the running context relation: `(atom index, column name)`
    /// of an attribute fetched by an earlier step (or equated to one).
    Ctx(usize, String),
}

impl fmt::Display for KeySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeySource::Constant(v) => write!(f, "{v}"),
            KeySource::Constants(vs) => {
                let items: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
                write!(f, "{{{}}}", items.join(", "))
            }
            KeySource::Ctx(atom, col) => write!(f, "T.#{atom}.{col}"),
        }
    }
}

/// A constant of a fetch key that fills a parameter slot of the query
/// shape: `keys[key]` itself, or its `alternative`-th IN-list value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyParam {
    /// Position in [`PlannedFetch::keys`].
    pub key: usize,
    /// Position in the IN-list of a [`KeySource::Constants`]; 0 for a
    /// [`KeySource::Constant`].
    pub alternative: usize,
    /// The parameter slot.
    pub slot: usize,
}

/// What executing a fetch step needs that depends on the query *shape*
/// alone — no literal's value is in here — so the planner derives it once
/// and every statement bound from a shape's plan shares it.
#[derive(Debug, PartialEq)]
pub struct ResolvedFetch {
    /// Id of the constraint: the key of its index in
    /// [`beas_access::AccessIndexes`], and the step's name in the execution
    /// metrics (`Fetch(<id>)`).
    pub index_id: String,
    /// For each [`KeySource::Ctx`] of [`PlannedFetch::keys`], the context
    /// position it reads; `None` for constants.
    pub key_positions: Vec<Option<usize>>,
    /// The context schema after the step: the context before it, then the
    /// `X` and the `Y` attributes of the fetched atom under its alias.  The
    /// `X` fields double as the step's cast table: a key value is cast to
    /// its attribute's declared type before the lookup, so that a date
    /// written as a string finds the bucket of that date.
    pub schema: Schema,
}

/// One planned fetch operation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedFetch {
    /// The query atom (FROM-clause position) being fetched.
    pub atom: usize,
    /// Alias of the atom.
    pub alias: String,
    /// The access constraint whose index performs the fetch.
    pub constraint: AccessConstraint,
    /// Key sources, one per attribute of the constraint's `X`, in `X` order.
    pub keys: Vec<KeySource>,
    /// Which constants of `keys` fill parameter slots, for a plan generated
    /// from a query shape; empty once the plan is bound to a statement's
    /// values, and for a plan generated from a statement with its literals
    /// in place.
    pub key_params: Vec<KeyParam>,
    /// Upper bound on the number of (partial) tuples this fetch accesses.
    pub bound: u64,
    /// Predicates that become checkable right after this fetch (selections
    /// on the fetched atom, and equalities on fetched attributes that no
    /// lookup enforces), bound to the positions of
    /// [`ResolvedFetch::schema`].
    pub post_filters: Vec<BoundExpr>,
    /// Positions, types and names resolved by the planner.
    pub resolved: Arc<ResolvedFetch>,
}

impl PlannedFetch {
    fn bind_params(&self, values: &[Value]) -> PlannedFetch {
        let mut keys = self.keys.clone();
        for p in &self.key_params {
            let value = values[p.slot].clone();
            match &mut keys[p.key] {
                KeySource::Constant(v) => *v = value,
                KeySource::Constants(vs) => vs[p.alternative] = value,
                KeySource::Ctx(..) => unreachable!("a context column fills no parameter slot"),
            }
        }
        PlannedFetch {
            atom: self.atom,
            alias: self.alias.clone(),
            constraint: self.constraint.clone(),
            keys,
            key_params: Vec::new(),
            bound: self.bound,
            post_filters: self
                .post_filters
                .iter()
                .map(|p| p.bind_params(values))
                .collect(),
            resolved: Arc::clone(&self.resolved),
        }
    }
}

/// A complete bounded plan.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedPlan {
    /// Fetch steps in execution order.
    pub fetches: Vec<PlannedFetch>,
    /// Total upper bound on tuples accessed by the whole plan
    /// (`Σ` per-fetch bounds), deduced before execution.
    pub total_bound: u64,
    /// Number of distinct access constraints employed.
    pub constraints_used: usize,
    /// What turns the fetched context into the answer, run by the engine's
    /// operators: a [`LogicalPlan::Context`] leaf under the residual filters
    /// (predicates spanning several atoms), aggregation with HAVING,
    /// projection, duplicate elimination, sort and limit.  An `Err` names
    /// the column the answer reads and the context lacks, which only a plan
    /// that fetches part of the query can have — partially bounded
    /// evaluation hands that residue to the conventional engine and never
    /// looks here.
    pub finalization: Result<LogicalPlan>,
}

impl BoundedPlan {
    /// The plan of the statement that has this plan's query shape and the
    /// parameter vector `values`: fetch keys, post-filters and the
    /// finalization's predicates are bound to them.  Bounds and fetch order
    /// are the shape's — neither reads a literal's value.
    pub(crate) fn bind_params(&self, values: &[Value]) -> BoundedPlan {
        BoundedPlan {
            fetches: self.fetches.iter().map(|f| f.bind_params(values)).collect(),
            total_bound: self.total_bound,
            constraints_used: self.constraints_used,
            finalization: self
                .finalization
                .as_ref()
                .map(|plan| plan.bind_params(values))
                .map_err(Clone::clone),
        }
    }

    /// Render the plan with per-fetch bound annotations, in the style of the
    /// demo UI (Fig. 2(B)).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "BoundedPlan: {} fetch steps, {} access constraints, total bound {} tuples\n",
            self.fetches.len(),
            self.constraints_used,
            self.total_bound
        ));
        for (i, f) in self.fetches.iter().enumerate() {
            let keys: Vec<String> = f.keys.iter().map(|k| k.to_string()).collect();
            out.push_str(&format!(
                "  {}. fetch({} ∈ [{}], {{{}}}, {}) via {}   ≤ {} tuples\n",
                i + 1,
                f.constraint.x.join(","),
                keys.join(", "),
                f.constraint.y.join(","),
                f.alias,
                f.constraint,
                f.bound
            ));
            for p in &f.post_filters {
                out.push_str(&format!("       then filter {p}\n"));
            }
        }
        match &self.finalization {
            Ok(finalization) => {
                out.push_str("  finalize:\n");
                for line in finalization.explain().lines() {
                    out.push_str(&format!("    {line}\n"));
                }
            }
            Err(why) => out.push_str(&format!("  finalize: not from this context ({why})\n")),
        }
        out
    }

    /// Whether the plan's deduced bound fits within `budget` tuples.
    pub fn fits_budget(&self, budget: u64) -> bool {
        self.total_bound <= budget
    }
}

impl fmt::Display for BoundedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> BoundedPlan {
        let psi3 = AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap();
        BoundedPlan {
            fetches: vec![PlannedFetch {
                atom: 2,
                alias: "business".into(),
                keys: vec![
                    KeySource::Constant(Value::str("t0")),
                    KeySource::Constant(Value::str("r0")),
                ],
                key_params: vec![],
                bound: 2000,
                post_filters: vec![],
                resolved: Arc::new(ResolvedFetch {
                    index_id: psi3.id(),
                    key_positions: vec![None, None],
                    schema: Schema::empty(),
                }),
                constraint: psi3,
            }],
            total_bound: 2000,
            constraints_used: 1,
            finalization: Ok(LogicalPlan::Distinct {
                input: Box::new(LogicalPlan::Context {
                    schema: Schema::empty(),
                }),
            }),
        }
    }

    #[test]
    fn explain_contains_bounds_and_keys() {
        let plan = sample_plan();
        let s = plan.explain();
        assert!(s.contains("total bound 2000 tuples"));
        assert!(s.contains("'t0'"));
        assert!(s.contains("≤ 2000 tuples"));
        assert!(s.contains("finalize:\n    Distinct\n      Context\n"));
        assert_eq!(format!("{plan}"), s);
    }

    #[test]
    fn budget_check() {
        let plan = sample_plan();
        assert!(plan.fits_budget(2000));
        assert!(plan.fits_budget(1_000_000));
        assert!(!plan.fits_budget(1999));
    }

    #[test]
    fn key_source_display() {
        assert_eq!(KeySource::Constant(Value::Int(7)).to_string(), "7");
        assert_eq!(
            KeySource::Constants(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "{1, 2}"
        );
        assert_eq!(KeySource::Ctx(0, "pnum".into()).to_string(), "T.#0.pnum");
    }
}
