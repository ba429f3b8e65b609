//! The AS catalog's Maintenance module: the only writes to a [`BeasSystem`]'s
//! rows and bounds.  After any of them the indices equal a rebuild and
//! `D |= A` holds; a batch copies in proportion to its rows, not to `|D|`.

use crate::system::BeasSystem;
use beas_access::{MaintenanceOutcome, MaintenancePolicy};
use beas_common::{BeasError, Result, Row};
use beas_storage::CopyStats;

impl BeasSystem {
    /// Choose the policy applied when an insert would break a cardinality
    /// bound (default: [`MaintenancePolicy::Strict`]).
    pub fn with_maintenance_policy(mut self, policy: MaintenancePolicy) -> Self {
        self.maintenance_policy = policy;
        self
    }

    /// Copy-on-write work done so far by `table` and its constraint indices.
    fn copy_stats(&self, table: &str) -> Result<CopyStats> {
        let mut total = self.db.table(table)?.copy_stats();
        for c in self.schema.for_table(table) {
            if let Some(idx) = self.indexes.for_constraint(c) {
                total += idx.copy_stats();
            }
        }
        Ok(total)
    }

    /// Insert rows into `table`, updating every affected constraint index.
    ///
    /// The batch is all-or-nothing: an invalid row rejects it, and under
    /// [`MaintenancePolicy::Strict`] so does any row that would break a
    /// bound.  Each constraint decides from the batch and the buckets it
    /// touches, so the cost is O(batch × bucket) whatever the size of the
    /// table.  Cached plans stay valid unless
    /// [`MaintenancePolicy::AutoAdjust`] raised a bound.
    ///
    /// # Example
    ///
    /// ```
    /// use beas_access::{AccessConstraint, AccessSchema};
    /// use beas_common::{ColumnDef, DataType, TableSchema, Value};
    /// use beas_core::BeasSystem;
    /// use beas_storage::Database;
    ///
    /// let mut db = Database::new();
    /// let columns = ["pnum", "recnum"].map(|c| ColumnDef::new(c, DataType::Str));
    /// db.create_table(TableSchema::new("call", Vec::from(columns))?)?;
    /// let psi = AccessConstraint::new("call", &["pnum"], &["recnum"], 100)?;
    /// let mut system = BeasSystem::with_schema(db, AccessSchema::from_constraints([psi]))?;
    /// let row = |p: &str, r: &str| vec![Value::str(p), Value::str(r)];
    /// system.insert_rows("call", vec![row("p2", "r8"), row("p2", "r9")])?;
    /// system.delete_rows("call", |row| row[1] == Value::str("r8"))?;
    /// // the next query sees both writes through a bounded fetch
    /// let outcome = system.execute_sql("SELECT recnum FROM call WHERE pnum = 'p2'")?;
    /// assert_eq!(outcome.rows, vec![vec![Value::str("r9")]]);
    /// # Ok::<(), beas_common::BeasError>(())
    /// ```
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<MaintenanceOutcome> {
        let table = table.to_ascii_lowercase();
        let batch = self.db.table(&table)?.coerce_batch(rows)?;
        let mut outcome = MaintenanceOutcome {
            rows_affected: batch.rows().len(),
            ..Default::default()
        };
        // Bounds the batch would break, decided before anything is written.
        for c in self.schema.for_table(&table) {
            if let Some(idx) = self.indexes.for_constraint(c) {
                let observed = idx.max_cardinality_with(batch.rows()) as u64;
                if observed <= c.n {
                    continue;
                }
                if self.maintenance_policy == MaintenancePolicy::Strict {
                    return Err(BeasError::conformance(format!(
                        "insert into {table:?} would violate {c} (observed {observed})"
                    )));
                }
                outcome.adjusted.push((c.id(), observed));
            }
        }
        for (id, observed) in &outcome.adjusted {
            if let Some(c) = self.schema.get_mut(id) {
                c.n = *observed;
            }
        }
        if !outcome.adjusted.is_empty() {
            self.bump_access_epoch();
        }
        let before = self.copy_stats(&table)?;
        for c in self.schema.for_table(&table) {
            if let Some(idx) = self.indexes.get_mut(&c.id()) {
                batch.rows().iter().for_each(|row| idx.add_row(row));
            }
        }
        // cannot fail: the table exists, it coerced the batch
        self.db.table_mut(&table)?.append(batch);
        outcome.copied = self.copy_stats(&table)? - before;
        Ok(outcome)
    }

    /// Delete the rows of `table` matching `predicate`, keeping every
    /// affected index consistent; cached plans stay valid.  Every row is
    /// tested, but only segments holding a match and the removed rows'
    /// index entries are copied and repaired.
    pub fn delete_rows(
        &mut self,
        table: &str,
        predicate: impl FnMut(&Row) -> bool,
    ) -> Result<MaintenanceOutcome> {
        let table = table.to_ascii_lowercase();
        let before = self.copy_stats(&table)?;
        let removed = self.db.table_mut(&table)?.delete_where(predicate);
        for c in self.schema.for_table(&table) {
            if let Some(idx) = self.indexes.get_mut(&c.id()) {
                idx.remove_rows(removed.iter().map(|(_, row)| row));
            }
        }
        Ok(MaintenanceOutcome {
            rows_affected: removed.len(),
            copied: self.copy_stats(&table)? - before,
            ..Default::default()
        })
    }

    /// Set every bound to its observed maximum times `headroom`, returning
    /// `(id, old, new)` for each bound that changed.  The maxima are the
    /// indices' own, so this is O(constraints); a change moves the
    /// access-schema epoch, invalidating every cached plan.
    pub fn adjust_bounds(&mut self, headroom: f64) -> Result<Vec<(String, u64, u64)>> {
        if headroom < 1.0 {
            return Err(BeasError::invalid_argument("headroom must be >= 1.0"));
        }
        let mut changes = Vec::new();
        for c in self.schema.constraints() {
            let index = self.indexes.for_constraint(c);
            let index = index.ok_or_else(|| BeasError::execution(format!("no index for {c}")))?;
            let observed = index.observed_max_cardinality();
            let new_n = ((observed as f64 * headroom).ceil() as u64).max(1);
            if c.n != new_n {
                changes.push((c.id(), c.n, new_n));
            }
        }
        for (id, _, new_n) in &changes {
            if let Some(c) = self.schema.get_mut(id) {
                c.n = *new_n;
            }
        }
        if !changes.is_empty() {
            self.bump_access_epoch();
        }
        Ok(changes)
    }
}
