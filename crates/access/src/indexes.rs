//! Building and querying the physical indices of an access schema.
//!
//! `AccessIndexes` is the runtime companion of an [`AccessSchema`]: one
//! [`ConstraintIndex`] per constraint, keyed by the constraint id.  Bounded
//! plans execute their `fetch` operators against these indices, never against
//! the base tables.

use crate::constraint::AccessConstraint;
use crate::schema::AccessSchema;
use beas_common::{BeasError, Result, Row, Value};
use beas_storage::{ConstraintIndex, Database};
use std::collections::HashMap;

/// The physical indices backing an access schema.
#[derive(Debug, Clone, Default)]
pub struct AccessIndexes {
    indexes: HashMap<String, ConstraintIndex>,
}

impl AccessIndexes {
    /// Empty set of indices.
    pub fn new() -> Self {
        AccessIndexes::default()
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// Whether there are no indices.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// The index for a constraint id, if built.
    pub fn get(&self, id: &str) -> Option<&ConstraintIndex> {
        self.indexes.get(id)
    }

    /// The index for a constraint, if built.
    pub fn for_constraint(&self, c: &AccessConstraint) -> Option<&ConstraintIndex> {
        self.indexes.get(&c.id())
    }

    /// Fetch `D_Y(X = key)` through a constraint's index.
    pub fn fetch(&self, constraint: &AccessConstraint, key: &[Value]) -> Result<&[Row]> {
        let idx = self.for_constraint(constraint).ok_or_else(|| {
            BeasError::execution(format!("no index built for constraint {constraint}"))
        })?;
        Ok(idx.fetch(key))
    }

    /// Total estimated size of all indices in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.indexes.values().map(|i| i.estimated_bytes()).sum()
    }

    /// Mutable access to the index of a constraint (used by incremental
    /// maintenance).
    pub fn get_mut(&mut self, id: &str) -> Option<&mut ConstraintIndex> {
        self.indexes.get_mut(id)
    }

    /// Iterate over `(constraint id, index)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &ConstraintIndex)> {
        self.indexes.iter()
    }
}

/// Build indices for every constraint of an access schema, refusing data
/// that does not conform to it (`D ⊭ A`).
///
/// This is the offline step the AS catalog performs when an access schema is
/// registered for an application, and the one `BeasSystem` performs when it
/// is assembled.  Each index keeps its largest bucket as it is built, so
/// conformance is read from the indices, one comparison per constraint; the
/// error names every violated constraint with its observed maximum.
pub fn build_indexes(db: &Database, schema: &AccessSchema) -> Result<AccessIndexes> {
    let mut out = AccessIndexes::new();
    let mut violations = Vec::new();
    for c in schema.constraints() {
        let table = db.table(&c.table)?;
        c.validate_against(table.schema())?;
        let index = ConstraintIndex::build(table, &c.x, &c.y)?;
        let observed = index.observed_max_cardinality();
        if observed as u64 > c.n {
            violations.push(format!("{c} (observed {observed})"));
        }
        out.indexes.insert(c.id(), index);
    }
    if !violations.is_empty() {
        return Err(BeasError::conformance(format!(
            "database does not conform to access schema: {}",
            violations.join("; ")
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_common::{ColumnDef, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
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
        for i in 0..20 {
            db.insert(
                "business",
                vec![
                    Value::str(format!("p{i}")),
                    Value::str(if i % 2 == 0 { "bank" } else { "hospital" }),
                    Value::str(if i < 10 { "east" } else { "west" }),
                ],
            )
            .unwrap();
        }
        db
    }

    fn psi3() -> AccessConstraint {
        AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap()
    }

    #[test]
    fn build_and_fetch() {
        let db = db();
        let schema = AccessSchema::from_constraints(vec![psi3()]);
        let idx = build_indexes(&db, &schema).unwrap();
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
        let rows = idx
            .fetch(&psi3(), &[Value::str("bank"), Value::str("east")])
            .unwrap();
        assert_eq!(rows.len(), 5); // p0, p2, p4, p6, p8
        assert!(idx.estimated_bytes() > 0);
        assert!(idx.get(&psi3().id()).is_some());
        assert!(idx.get("nosuch").is_none());
        assert_eq!(idx.iter().count(), 1);
    }

    #[test]
    fn build_fails_for_bad_constraint() {
        let db = db();
        let bad_col = AccessSchema::from_constraints(vec![AccessConstraint::new(
            "business",
            &["nope"],
            &["pnum"],
            5,
        )
        .unwrap()]);
        assert!(build_indexes(&db, &bad_col).is_err());
        let bad_table = AccessSchema::from_constraints(vec![AccessConstraint::new(
            "nosuch",
            &["a"],
            &["b"],
            5,
        )
        .unwrap()]);
        assert!(build_indexes(&db, &bad_table).is_err());
    }

    #[test]
    fn fetch_without_index_errors() {
        let idx = AccessIndexes::new();
        assert!(idx
            .fetch(&psi3(), &[Value::str("bank"), Value::str("east")])
            .is_err());
    }
}
