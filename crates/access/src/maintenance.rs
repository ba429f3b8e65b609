//! Access-schema maintenance.
//!
//! The Maintenance module of the AS catalog (a) incrementally updates the
//! constraint indices when the underlying data changes, and (b) periodically
//! re-validates / adjusts the cardinality bounds as the data and query load
//! evolve.  The paper cites an optimal incremental algorithm from its
//! reference \[5\]; the
//! behaviour implemented here is the observable contract: after any sequence
//! of inserts and deletes, the maintained indices are identical to indices
//! rebuilt from scratch, and bound violations are handled per policy.  The
//! cost contract is the paper's: a batch copies and repairs storage in
//! proportion to its own rows and the buckets they fall in, not to `|D|`;
//! [`MaintenanceOutcome::copied`] reports what each batch copied.

use crate::conformance::{check_conformance, ConformanceReport};
use crate::indexes::AccessIndexes;
use crate::schema::AccessSchema;
use beas_common::{BeasError, Result, Row};
use beas_storage::{CopyStats, Database};

/// What to do when an insert would violate a cardinality bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenancePolicy {
    /// Reject the insert with a conformance error.
    Strict,
    /// Accept the insert and raise the constraint's bound to cover it.
    AutoAdjust,
    /// Accept the insert and record the violation for later review.
    Flag,
}

/// The outcome of a maintenance operation.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceOutcome {
    /// Rows inserted or deleted.
    pub rows_affected: usize,
    /// Constraints whose bound was automatically raised (id, new bound).
    pub adjusted: Vec<(String, u64)>,
    /// Constraints flagged as violated (id, observed cardinality).
    pub flagged: Vec<(String, u64)>,
    /// What the batch copied because the storage it wrote was shared with
    /// another generation: table segments opened and merged and rows
    /// copied, index shards and buckets cloned.  Proportional to the batch.
    pub copied: CopyStats,
}

/// Incremental maintainer of an access schema and its indices.
#[derive(Debug, Clone)]
pub struct Maintainer {
    policy: MaintenancePolicy,
}

impl Default for Maintainer {
    fn default() -> Self {
        Maintainer::new(MaintenancePolicy::Strict)
    }
}

/// Copy-on-write work done so far by `table` and by its constraint indices.
fn copy_stats(
    db: &Database,
    schema: &AccessSchema,
    indexes: &AccessIndexes,
    table: &str,
) -> Result<CopyStats> {
    let mut total = db.table(table)?.copy_stats();
    for c in schema.for_table(table) {
        if let Some(idx) = indexes.for_constraint(c) {
            total += idx.copy_stats();
        }
    }
    Ok(total)
}

impl Maintainer {
    /// Create a maintainer with the given violation policy.
    pub fn new(policy: MaintenancePolicy) -> Self {
        Maintainer { policy }
    }

    /// The configured policy.
    pub fn policy(&self) -> MaintenancePolicy {
        self.policy
    }

    /// Insert rows into `table`, updating every affected constraint index.
    ///
    /// The batch is all-or-nothing: an invalid row rejects it, and under
    /// [`MaintenancePolicy::Strict`] so does any row that would break a
    /// cardinality bound.  Rows are coerced to the table's column types
    /// once; each constraint then decides conformance from the batch and
    /// the buckets it touches, so the cost is O(batch × bucket) whatever
    /// the size of the table.
    pub fn insert_rows(
        &self,
        db: &mut Database,
        schema: &mut AccessSchema,
        indexes: &mut AccessIndexes,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<MaintenanceOutcome> {
        let table = table.to_ascii_lowercase();
        let batch = db.table(&table)?.coerce_batch(rows)?;
        let mut outcome = MaintenanceOutcome {
            rows_affected: batch.rows().len(),
            ..Default::default()
        };

        // Bounds the batch would break, decided before anything is written.
        let mut exceeded: Vec<(String, u64)> = Vec::new();
        for c in schema.for_table(&table) {
            if let Some(idx) = indexes.for_constraint(c) {
                let observed = idx.max_cardinality_with(batch.rows()) as u64;
                if observed <= c.n {
                    continue;
                }
                if self.policy == MaintenancePolicy::Strict {
                    return Err(BeasError::conformance(format!(
                        "insert into {table:?} would violate {c} (observed {observed})"
                    )));
                }
                exceeded.push((c.id(), observed));
            }
        }
        match self.policy {
            MaintenancePolicy::Strict => {}
            MaintenancePolicy::AutoAdjust => {
                for (id, observed) in &exceeded {
                    if let Some(c) = schema.get_mut(id) {
                        c.n = *observed;
                    }
                }
                outcome.adjusted = exceeded;
            }
            MaintenancePolicy::Flag => outcome.flagged = exceeded,
        }

        let before = copy_stats(db, schema, indexes, &table)?;
        for c in schema.for_table(&table) {
            if let Some(idx) = indexes.get_mut(&c.id()) {
                batch.rows().iter().for_each(|row| idx.add_row(row));
            }
        }
        // cannot fail: the table exists, it coerced the batch
        db.table_mut(&table)?.append(batch);
        outcome.copied = copy_stats(db, schema, indexes, &table)? - before;
        Ok(outcome)
    }

    /// Delete rows matching `predicate` from `table`, updating indices.
    ///
    /// Every row of the table is tested against the predicate; what is
    /// copied and repaired is proportional to the rows removed: the table
    /// rebuilds only segments holding a match, and each constraint index
    /// decrements the counts of the removed rows' entries without looking
    /// at the table.
    pub fn delete_rows(
        &self,
        db: &mut Database,
        schema: &AccessSchema,
        indexes: &mut AccessIndexes,
        table: &str,
        predicate: impl FnMut(&Row) -> bool,
    ) -> Result<MaintenanceOutcome> {
        let table = table.to_ascii_lowercase();
        let before = copy_stats(db, schema, indexes, &table)?;
        let removed = db.table_mut(&table)?.delete_where(predicate);
        for c in schema.for_table(&table) {
            if let Some(idx) = indexes.get_mut(&c.id()) {
                idx.remove_rows(removed.iter().map(|(_, row)| row));
            }
        }
        Ok(MaintenanceOutcome {
            rows_affected: removed.len(),
            copied: copy_stats(db, schema, indexes, &table)? - before,
            ..Default::default()
        })
    }

    /// Periodic re-validation: check conformance of the whole schema against
    /// the current data (the "adjust constraints based on changes" step).
    pub fn revalidate(&self, db: &Database, schema: &AccessSchema) -> Result<ConformanceReport> {
        check_conformance(db, schema)
    }

    /// Tighten (or relax) every bound to the observed cardinality times
    /// `headroom`, returning the ids whose bound changed.
    pub fn adjust_bounds(
        &self,
        db: &Database,
        schema: &mut AccessSchema,
        headroom: f64,
    ) -> Result<Vec<(String, u64, u64)>> {
        if headroom < 1.0 {
            return Err(BeasError::invalid_argument("headroom must be >= 1.0"));
        }
        let report = check_conformance(db, schema)?;
        let mut changes = Vec::new();
        for entry in report.entries {
            let new_n = ((entry.observed_max as f64 * headroom).ceil() as u64).max(1);
            let id = entry.constraint.id();
            if let Some(c) = schema.get_mut(&id) {
                if c.n != new_n {
                    changes.push((id, c.n, new_n));
                    c.n = new_n;
                }
            }
        }
        Ok(changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::AccessConstraint;
    use crate::indexes::build_indexes;
    use beas_common::{ColumnDef, DataType, TableSchema, Value};

    fn setup() -> (Database, AccessSchema, AccessIndexes) {
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
        for (p, r) in [("p1", "a"), ("p1", "b"), ("p2", "a")] {
            db.insert(
                "call",
                vec![Value::str(p), Value::str(r), Value::str("2016-07-04")],
            )
            .unwrap();
        }
        let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
            "call",
            &["pnum", "date"],
            &["recnum"],
            3,
        )
        .unwrap()]);
        let indexes = build_indexes(&db, &schema).unwrap();
        (db, schema, indexes)
    }

    fn row(p: &str, r: &str) -> Row {
        vec![Value::str(p), Value::str(r), Value::str("2016-07-04")]
    }

    #[test]
    fn insert_updates_indices_consistently() {
        let (mut db, mut schema, mut indexes) = setup();
        let m = Maintainer::default();
        let out = m
            .insert_rows(
                &mut db,
                &mut schema,
                &mut indexes,
                "call",
                vec![row("p2", "b")],
            )
            .unwrap();
        assert_eq!(out.rows_affected, 1);
        // incrementally maintained index == rebuilt-from-scratch index
        let rebuilt = build_indexes(&db, &schema).unwrap();
        let id = schema.constraints()[0].id();
        assert_eq!(
            indexes.get(&id).unwrap().total_entries(),
            rebuilt.get(&id).unwrap().total_entries()
        );
        assert_eq!(
            indexes.get(&id).unwrap().observed_max_cardinality(),
            rebuilt.get(&id).unwrap().observed_max_cardinality()
        );
    }

    #[test]
    fn strict_policy_rejects_violating_insert() {
        let (mut db, mut schema, mut indexes) = setup();
        let m = Maintainer::new(MaintenancePolicy::Strict);
        // p1 already has 2 distinct recnums on 2016-07-04; bound is 3; adding
        // two new distinct recnums would exceed it.
        let err = m
            .insert_rows(
                &mut db,
                &mut schema,
                &mut indexes,
                "call",
                vec![row("p1", "c"), row("p1", "d")],
            )
            .unwrap_err();
        assert_eq!(err.kind(), "conformance");
        // nothing was inserted
        assert_eq!(db.table("call").unwrap().row_count(), 3);
    }

    #[test]
    fn auto_adjust_policy_raises_bound() {
        let (mut db, mut schema, mut indexes) = setup();
        let m = Maintainer::new(MaintenancePolicy::AutoAdjust);
        let out = m
            .insert_rows(
                &mut db,
                &mut schema,
                &mut indexes,
                "call",
                vec![row("p1", "c"), row("p1", "d")],
            )
            .unwrap();
        assert_eq!(out.rows_affected, 2);
        assert_eq!(out.adjusted.len(), 1);
        assert_eq!(schema.constraints()[0].n, 4);
        assert!(m.revalidate(&db, &schema).unwrap().conforms());
    }

    #[test]
    fn flag_policy_records_violations() {
        let (mut db, mut schema, mut indexes) = setup();
        let m = Maintainer::new(MaintenancePolicy::Flag);
        let out = m
            .insert_rows(
                &mut db,
                &mut schema,
                &mut indexes,
                "call",
                vec![row("p1", "c"), row("p1", "d")],
            )
            .unwrap();
        assert_eq!(out.flagged.len(), 1);
        assert_eq!(out.flagged[0].1, 4);
        // bound unchanged, so the schema no longer conforms
        assert!(!m.revalidate(&db, &schema).unwrap().conforms());
    }

    #[test]
    fn delete_maintains_indices() {
        let (mut db, schema, mut indexes) = setup();
        let m = Maintainer::default();
        let out = m
            .delete_rows(&mut db, &schema, &mut indexes, "call", |r| {
                r[0] == Value::str("p1")
            })
            .unwrap();
        assert_eq!(out.rows_affected, 2);
        let rebuilt = build_indexes(&db, &schema).unwrap();
        let id = schema.constraints()[0].id();
        assert_eq!(
            indexes.get(&id).unwrap().total_entries(),
            rebuilt.get(&id).unwrap().total_entries()
        );
    }

    #[test]
    fn interleaved_insert_delete_batches_match_rebuild() {
        let (mut db, mut schema, mut indexes) = setup();
        let m = Maintainer::new(MaintenancePolicy::AutoAdjust);
        let id = schema.constraints()[0].id();

        // interleave insert and delete batches, checking full bucket-level
        // equality with a from-scratch rebuild after every step
        let steps: Vec<(&str, Vec<Row>)> = vec![
            (
                "insert",
                vec![row("p2", "b"), row("p3", "a"), row("p3", "b")],
            ),
            ("delete-p1", vec![]),
            (
                "insert",
                vec![row("p1", "x"), row("p1", "y"), row("p4", "a")],
            ),
            ("delete-b", vec![]),
            ("insert", vec![row("p2", "c")]),
            ("delete-p3", vec![]),
        ];
        for (step, rows) in steps {
            match step {
                "insert" => {
                    m.insert_rows(&mut db, &mut schema, &mut indexes, "call", rows)
                        .unwrap();
                }
                "delete-p1" => {
                    m.delete_rows(&mut db, &schema, &mut indexes, "call", |r| {
                        r[0] == Value::str("p1")
                    })
                    .unwrap();
                }
                "delete-b" => {
                    m.delete_rows(&mut db, &schema, &mut indexes, "call", |r| {
                        r[1] == Value::str("b")
                    })
                    .unwrap();
                }
                "delete-p3" => {
                    m.delete_rows(&mut db, &schema, &mut indexes, "call", |r| {
                        r[0] == Value::str("p3")
                    })
                    .unwrap();
                }
                _ => unreachable!(),
            }
            let rebuilt = build_indexes(&db, &schema).unwrap();
            let maintained = indexes.get(&id).unwrap();
            let reference = rebuilt.get(&id).unwrap();
            // bucket-level equality, not just aggregate counts
            assert_eq!(
                maintained.sorted_entries(),
                reference.sorted_entries(),
                "divergence after step {step}"
            );
            assert_eq!(
                maintained.observed_max_cardinality(),
                reference.observed_max_cardinality(),
                "max cardinality divergence after step {step}"
            );
        }
        // deleting everything empties the index the same way
        m.delete_rows(&mut db, &schema, &mut indexes, "call", |_| true)
            .unwrap();
        assert_eq!(indexes.get(&id).unwrap().total_entries(), 0);
        assert_eq!(indexes.get(&id).unwrap().observed_max_cardinality(), 0);
    }

    #[test]
    fn rows_sharing_a_partial_tuple_are_counted_and_deleted_one_at_a_time() {
        let (mut db, mut schema, mut indexes) = setup();
        let m = Maintainer::default();
        let id = schema.constraints()[0].id();
        // three more base rows behind the existing (p1, 07-04) -> a entry:
        // the bucket does not grow, so the bound of 3 is not in play
        let out = m
            .insert_rows(
                &mut db,
                &mut schema,
                &mut indexes,
                "call",
                vec![row("p1", "a"), row("p1", "a"), row("p1", "a")],
            )
            .unwrap();
        assert_eq!(out.rows_affected, 3);
        assert_eq!(indexes.get(&id).unwrap().total_entries(), 3);
        for remaining in (0..4).rev() {
            let mut done = false;
            let out = m
                .delete_rows(&mut db, &schema, &mut indexes, "call", |r| {
                    let hit = !done && r[0] == Value::str("p1") && r[1] == Value::str("a");
                    done |= hit;
                    hit
                })
                .unwrap();
            assert_eq!(out.rows_affected, 1);
            let maintained = indexes.get(&id).unwrap();
            maintained
                .check_against_table(db.table("call").unwrap())
                .unwrap();
            // the partial tuple stays fetchable until its last base row goes
            assert_eq!(
                maintained.total_entries(),
                if remaining > 0 { 3 } else { 2 }
            );
        }
    }

    #[test]
    fn a_batch_with_an_invalid_row_inserts_nothing_under_any_policy() {
        for policy in [
            MaintenancePolicy::Strict,
            MaintenancePolicy::AutoAdjust,
            MaintenancePolicy::Flag,
        ] {
            let (mut db, mut schema, mut indexes) = setup();
            let bad = vec![Value::str("p9"), Value::Int(7), Value::str("2016-07-04")];
            let err = Maintainer::new(policy)
                .insert_rows(
                    &mut db,
                    &mut schema,
                    &mut indexes,
                    "call",
                    vec![row("p9", "a"), bad],
                )
                .unwrap_err();
            assert_eq!(err.kind(), "storage");
            assert_eq!(db.table("call").unwrap().row_count(), 3);
            let id = schema.constraints()[0].id();
            indexes
                .get(&id)
                .unwrap()
                .check_against_table(db.table("call").unwrap())
                .unwrap();
        }
    }

    #[test]
    fn outcome_reports_what_a_batch_on_a_fork_copied() {
        let (db, schema, indexes) = setup();
        let m = Maintainer::default();
        // an unshared system copies nothing to take a write ...
        let (mut own_db, mut own_schema, mut own_indexes) =
            (db.clone(), schema.clone(), indexes.clone());
        drop((db, indexes));
        let out = m
            .insert_rows(
                &mut own_db,
                &mut own_schema,
                &mut own_indexes,
                "call",
                vec![row("p2", "b")],
            )
            .unwrap();
        assert_eq!(out.copied, CopyStats::default());
        // ... a fork of it copies one shard's handles and the one bucket the
        // row falls in, and opens a segment instead of copying the tail
        let (mut fork_db, mut fork_schema, mut fork_indexes) =
            (own_db.clone(), own_schema.clone(), own_indexes.clone());
        let out = m
            .insert_rows(
                &mut fork_db,
                &mut fork_schema,
                &mut fork_indexes,
                "call",
                vec![row("p2", "c")],
            )
            .unwrap();
        assert_eq!(
            out.copied,
            CopyStats {
                segments_opened: 1,
                shards_cloned: 1,
                buckets_cloned: 1,
                ..CopyStats::default()
            }
        );
        // deleting that row again drops the private segment: nothing more
        // is copied, the shard and bucket are already the fork's own
        let out = m
            .delete_rows(&mut fork_db, &schema, &mut fork_indexes, "call", |r| {
                r[1] == Value::str("c")
            })
            .unwrap();
        assert_eq!(out.rows_affected, 1);
        assert_eq!(out.copied, CopyStats::default());
        assert_eq!(own_db.table("call").unwrap().row_count(), 4);
    }

    #[test]
    fn adjust_bounds_tightens_to_observed() {
        let (db, mut schema, _) = setup();
        let m = Maintainer::default();
        let changes = m.adjust_bounds(&db, &mut schema, 1.0).unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(schema.constraints()[0].n, 2); // observed max is 2
        assert!(m.adjust_bounds(&db, &mut schema, 0.5).is_err());
    }
}
