//! Conformance checking: does a database instance `D` conform to an access
//! schema `A` (written `D |= A`)?
//!
//! Conformance is what licenses the bounded-plan bound deduction: if
//! `D |= A`, every `fetch` through a constraint `R(X → Y, N)` returns at most
//! `N` partial tuples per key, so the amount of data a bounded plan touches
//! can be computed from `A` and the query alone.

use crate::constraint::AccessConstraint;
use crate::schema::AccessSchema;
use beas_common::Result;
use beas_storage::{Database, TableStatistics};
use std::fmt;

/// Conformance result for one constraint.
#[derive(Debug, Clone)]
pub struct ConstraintConformance {
    /// The constraint checked.
    pub constraint: AccessConstraint,
    /// Observed maximum number of distinct `Y`-values per `X`-key.
    pub observed_max: usize,
    /// Whether the data conforms (`observed_max <= N`).
    pub conforms: bool,
}

/// Conformance report for a whole access schema.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    /// Per-constraint results.
    pub entries: Vec<ConstraintConformance>,
}

impl ConformanceReport {
    /// Whether every constraint conforms.
    pub fn conforms(&self) -> bool {
        self.entries.iter().all(|e| e.conforms)
    }

    /// The constraints that are violated.
    pub fn violations(&self) -> Vec<&ConstraintConformance> {
        self.entries.iter().filter(|e| !e.conforms).collect()
    }
}

impl fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(
                f,
                "{:<60} observed max {:>8}  bound {:>8}  {}",
                e.constraint.to_string(),
                e.observed_max,
                e.constraint.n,
                if e.conforms { "OK" } else { "VIOLATED" }
            )?;
        }
        Ok(())
    }
}

/// Check conformance of one constraint against the current data.
pub fn check_constraint(
    db: &Database,
    constraint: &AccessConstraint,
) -> Result<ConstraintConformance> {
    let table = db.table(&constraint.table)?;
    constraint.validate_against(table.schema())?;
    let observed_max = TableStatistics::max_group_cardinality(table, &constraint.x, &constraint.y)?;
    Ok(ConstraintConformance {
        constraint: constraint.clone(),
        observed_max,
        conforms: observed_max as u64 <= constraint.n,
    })
}

/// Check conformance of a whole access schema (`D |= A`) by scanning every
/// constrained table.
///
/// This serves callers that hold no indices.  A system that holds them
/// never rescans: [`crate::build_indexes`] refuses `D ⊭ A` from the maxima
/// its indices keep, and maintenance keeps those maxima per batch.  The one
/// caller outside tests is the closed-loop benchmark's set-up, where the
/// scan is cheaper than building the indices twice; remove this scan when
/// that set-up stops calling it (ROADMAP item 2(e)).
pub fn check_conformance(db: &Database, schema: &AccessSchema) -> Result<ConformanceReport> {
    let mut report = ConformanceReport::default();
    for c in schema.constraints() {
        report.entries.push(check_constraint(db, c)?);
    }
    Ok(report)
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
                ],
            )
            .unwrap(),
        )
        .unwrap();
        // p1 calls 3 distinct numbers on 07-04, p2 calls 1
        let rows = vec![
            ("p1", "a", "2016-07-04"),
            ("p1", "b", "2016-07-04"),
            ("p1", "c", "2016-07-04"),
            ("p1", "a", "2016-07-04"), // duplicate partial tuple
            ("p2", "a", "2016-07-04"),
        ];
        for (p, r, d) in rows {
            db.insert("call", vec![Value::str(p), Value::str(r), Value::str(d)])
                .unwrap();
        }
        db
    }

    #[test]
    fn conforming_constraint() {
        let db = db();
        let c = AccessConstraint::new("call", &["pnum", "date"], &["recnum"], 3).unwrap();
        let r = check_constraint(&db, &c).unwrap();
        assert_eq!(r.observed_max, 3);
        assert!(r.conforms);
    }

    #[test]
    fn violated_constraint() {
        let db = db();
        let c = AccessConstraint::new("call", &["pnum", "date"], &["recnum"], 2).unwrap();
        let r = check_constraint(&db, &c).unwrap();
        assert_eq!(r.observed_max, 3);
        assert!(!r.conforms);
        let schema = AccessSchema::from_constraints(vec![c]);
        let report = check_conformance(&db, &schema).unwrap();
        assert!(!report.conforms());
        assert_eq!(report.violations().len(), 1);
        assert!(report.to_string().contains("VIOLATED"));
    }

    #[test]
    fn whole_schema_conformance() {
        let db = db();
        let schema = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum"], 500).unwrap(),
            AccessConstraint::new("call", &["pnum"], &["date"], 10).unwrap(),
        ]);
        let report = check_conformance(&db, &schema).unwrap();
        assert!(report.conforms());
        assert_eq!(report.entries.len(), 2);
        assert!(report.to_string().contains("OK"));
    }

    #[test]
    fn violation_report_names_the_offending_constraint() {
        // Two constraints over the same table, only one of them violated: the
        // report, and the error with which index construction refuses the
        // data, must single it out.
        let db = db();
        let violated = AccessConstraint::new("call", &["pnum", "date"], &["recnum"], 2).unwrap();
        let satisfied = AccessConstraint::new("call", &["pnum"], &["date"], 10).unwrap();
        let schema = AccessSchema::from_constraints(vec![satisfied.clone(), violated.clone()]);

        let report = check_conformance(&db, &schema).unwrap();
        assert!(!report.conforms());
        let violations = report.violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].constraint.id(), violated.id());
        assert_eq!(violations[0].observed_max, 3);

        let err = crate::indexes::build_indexes(&db, &schema).unwrap_err();
        assert_eq!(err.kind(), "conformance");
        let msg = err.to_string();
        assert!(
            msg.contains(&violated.to_string()),
            "error must name the violated constraint, got: {msg}"
        );
        assert!(msg.contains("observed 3"), "got: {msg}");
        assert!(
            !msg.contains(&satisfied.to_string()),
            "error must not implicate the satisfied constraint, got: {msg}"
        );
    }

    #[test]
    fn errors_for_unknown_table_or_column() {
        let db = db();
        let c = AccessConstraint::new("nosuch", &["a"], &["b"], 1).unwrap();
        assert!(check_constraint(&db, &c).is_err());
        let c2 = AccessConstraint::new("call", &["pnum"], &["nope"], 1).unwrap();
        assert!(check_constraint(&db, &c2).is_err());
    }
}
