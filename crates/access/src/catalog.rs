//! The AS Catalog: the offline service of BEAS that manages access schemas,
//! their indices and their metadata for different applications.
//!
//! The paper's catalog has three modules — Metadata, Discovery and
//! Maintenance.  [`AsCatalog`] is the Metadata module: applications register
//! a (database, access schema) pair; registration builds the constraint
//! indices, which refuses data that does not conform, and records metadata
//! (constraint count, index sizes, statistics) that the BE Query Planner
//! consults.  Discovery reads queries through the BE Checker's query graph,
//! so it lives in `beas-core` (`beas_core::discovery`); register what it
//! finds with [`AsCatalog::register`].  Maintenance is `BeasSystem`'s: it
//! owns the rows, the schema and the indices it keeps in step.

use crate::indexes::{build_indexes, AccessIndexes};
use crate::schema::AccessSchema;
use beas_common::{BeasError, Result};
use beas_storage::Database;
use std::collections::BTreeMap;
use std::fmt;

/// Metadata recorded for a registered access schema.
#[derive(Debug, Clone)]
pub struct SchemaMetadata {
    /// Application name.
    pub application: String,
    /// Number of constraints.
    pub constraint_count: usize,
    /// Estimated total index size in bytes.
    pub index_bytes: usize,
    /// Per-constraint (id, distinct keys, total entries).
    pub index_stats: Vec<(String, usize, usize)>,
}

impl fmt::Display for SchemaMetadata {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "application {:?}: {} constraints, ~{} KiB of indices",
            self.application,
            self.constraint_count,
            self.index_bytes / 1024
        )?;
        for (id, keys, entries) in &self.index_stats {
            writeln!(f, "  {id:<50} {keys:>8} keys {entries:>10} entries")?;
        }
        Ok(())
    }
}

/// One registered application: its access schema plus runtime artefacts.
#[derive(Debug, Clone)]
pub struct RegisteredSchema {
    /// The access schema.
    pub schema: AccessSchema,
    /// The built constraint indices.
    pub indexes: AccessIndexes,
    /// Catalog metadata.
    pub metadata: SchemaMetadata,
}

/// The AS catalog.
#[derive(Debug, Default)]
pub struct AsCatalog {
    applications: BTreeMap<String, RegisteredSchema>,
}

impl AsCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        AsCatalog::default()
    }

    /// Register an access schema for an application, building its indices;
    /// fails, naming each violated constraint, when `db` does not conform.
    pub fn register(
        &mut self,
        application: &str,
        db: &Database,
        schema: AccessSchema,
    ) -> Result<&RegisteredSchema> {
        if schema.is_empty() {
            return Err(BeasError::invalid_argument(
                "cannot register an empty access schema",
            ));
        }
        let indexes = build_indexes(db, &schema)?;
        let metadata = Self::metadata_for(application, &schema, &indexes);
        let name = application.to_string();
        self.applications.insert(
            name.clone(),
            RegisteredSchema {
                schema,
                indexes,
                metadata,
            },
        );
        Ok(&self.applications[&name])
    }

    /// The registered entry for an application.
    pub fn get(&self, application: &str) -> Option<&RegisteredSchema> {
        self.applications.get(application)
    }

    /// Remove an application's registration.
    pub fn unregister(&mut self, application: &str) -> bool {
        self.applications.remove(application).is_some()
    }

    /// Registered application names.
    pub fn applications(&self) -> Vec<String> {
        self.applications.keys().cloned().collect()
    }

    /// Render the whole catalog's metadata (the paper's "system table as
    /// catalog" for plan generation and optimization).
    pub fn metadata_text(&self) -> String {
        self.applications
            .values()
            .map(|r| r.metadata.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn metadata_for(
        application: &str,
        schema: &AccessSchema,
        indexes: &AccessIndexes,
    ) -> SchemaMetadata {
        let mut index_stats: Vec<(String, usize, usize)> = schema
            .constraints()
            .iter()
            .filter_map(|c| {
                indexes
                    .for_constraint(c)
                    .map(|i| (c.id(), i.distinct_keys(), i.total_entries()))
            })
            .collect();
        index_stats.sort();
        SchemaMetadata {
            application: application.to_string(),
            constraint_count: schema.len(),
            index_bytes: indexes.estimated_bytes(),
            index_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::AccessConstraint;
    use beas_common::{ColumnDef, DataType, TableSchema, Value};

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
        for i in 0..30 {
            db.insert(
                "business",
                vec![
                    Value::str(format!("p{i}")),
                    Value::str(if i % 2 == 0 { "bank" } else { "shop" }),
                    Value::str("east"),
                ],
            )
            .unwrap();
        }
        db
    }

    fn schema() -> AccessSchema {
        AccessSchema::from_constraints(vec![AccessConstraint::new(
            "business",
            &["type", "region"],
            &["pnum"],
            2000,
        )
        .unwrap()])
    }

    #[test]
    fn register_and_query_metadata() {
        let mut catalog = AsCatalog::new();
        let db = db();
        catalog.register("tlc", &db, schema()).unwrap();
        assert_eq!(catalog.applications(), vec!["tlc".to_string()]);
        let entry = catalog.get("tlc").unwrap();
        assert_eq!(entry.metadata.constraint_count, 1);
        assert!(entry.metadata.index_bytes > 0);
        assert_eq!(entry.metadata.index_stats.len(), 1);
        assert!(catalog.metadata_text().contains("tlc"));
        assert!(catalog.unregister("tlc"));
        assert!(!catalog.unregister("tlc"));
        assert!(catalog.get("tlc").is_none());
    }

    #[test]
    fn register_rejects_nonconforming_schema() {
        let mut catalog = AsCatalog::new();
        let db = db();
        let too_tight = AccessSchema::from_constraints(vec![AccessConstraint::new(
            "business",
            &["region"],
            &["pnum"],
            2,
        )
        .unwrap()]);
        // 30 businesses in one region against a bound of 2
        let err = catalog.register("tlc", &db, too_tight).unwrap_err();
        assert_eq!(err.kind(), "conformance");
        assert!(err.to_string().contains("(observed 30)"), "{err}");
        assert!(catalog.get("tlc").is_none());
        assert!(catalog.register("tlc", &db, AccessSchema::new()).is_err());
    }
}
