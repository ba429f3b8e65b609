//! The database: a named collection of tables plus cached statistics.

use crate::stats::TableStatistics;
use crate::table::Table;
use beas_common::{BeasError, Result, Row, TableSchema};
use beas_sql::SchemaProvider;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Memoized per-table statistics, validated against the database write
/// generation: an entry computed at generation `g` is served only while the
/// database is still at `g`, so any write — through maintenance or direct
/// table access — invalidates it without an explicit hook.  Interior
/// mutability lets read-only planning (`&Database`) fill the cache.
#[derive(Debug, Default)]
struct StatsCache(Mutex<HashMap<String, (u64, Arc<TableStatistics>)>>);

impl Clone for StatsCache {
    fn clone(&self) -> Self {
        StatsCache(Mutex::new(self.0.lock().expect("stats cache lock").clone()))
    }
}

/// An in-memory database instance.
///
/// This plays the role of the "underlying DBMS storage" of the paper: both
/// the conventional engine and BEAS's bounded plans ultimately read from the
/// tables stored here (the latter through constraint indices built over them).
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: HashMap<String, Table>,
    /// Per-table write generations, drawn from the same lineage allocator as
    /// the database generation: the pair `(table, generation)` identifies a
    /// table's contents across every clone of this database.  A mutation
    /// re-stamps only the table it goes through, which is what lets the
    /// per-table statistics memo survive writes to other tables.
    table_generations: HashMap<String, u64>,
    /// The generation stamped by the last DDL (create/drop table): it
    /// identifies the *catalog* — which tables exist, with which columns —
    /// across every clone of this database, and does not move with data
    /// writes.  Everything derived from the catalog alone (bound queries,
    /// coverage, bounded plans) stays valid while it stands.
    catalog_epoch: u64,
    statistics: StatsCache,
    /// Monotonic write-generation counter: bumped by every mutation path
    /// (DDL and any `table_mut` access).  Caches keyed on database contents
    /// — memoized statistics, a service's published snapshots — compare
    /// the generation they were built at against the current one.
    generation: u64,
    /// Generation allocator shared by every clone of this database (one
    /// *lineage*): each mutation takes a fresh value from it, so two clones
    /// that diverge independently can never arrive at the *same* generation
    /// with *different* contents.  That uniqueness is what lets state
    /// shared across clones — the `BeasSystem` plan cache under
    /// `fork()`-published service snapshots — treat equal stamps as equal
    /// contents (or, for [`Database::catalog_epoch`], equal catalogs).
    lineage: Arc<AtomicU64>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The current write generation.  Strictly increases with every
    /// mutation (insert, delete, DDL); within one lineage (a database and
    /// its clones), two equal generations guarantee identical contents —
    /// each mutation anywhere in the lineage consumes a distinct value.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advance this instance's generation to a lineage-unique value.
    fn bump_generation(&mut self) {
        self.generation = self.lineage.fetch_add(1, Ordering::Relaxed) + 1;
    }

    /// The generation stamped by the last create/drop table.  Within one
    /// lineage, two databases with equal catalog epochs hold the same
    /// tables with the same schemas, whatever rows they hold.
    pub fn catalog_epoch(&self) -> u64 {
        self.catalog_epoch
    }

    /// Create a table from a schema.  Fails if the name is already taken.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        let name = schema.name.clone();
        if self.tables.contains_key(&name) {
            return Err(BeasError::catalog(format!("table {name:?} already exists")));
        }
        self.bump_generation();
        self.catalog_epoch = self.generation;
        self.table_generations.insert(name.clone(), self.generation);
        self.tables.insert(name, Table::new(schema));
        Ok(())
    }

    /// Drop a table.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let name = name.to_ascii_lowercase();
        self.tables
            .remove(&name)
            .ok_or_else(|| BeasError::catalog(format!("unknown table {name:?}")))?;
        // the generation bump already invalidates the memo; removing the
        // entry keeps the cache from accumulating dropped-table stats
        self.statistics
            .0
            .lock()
            .expect("stats cache lock")
            .remove(&name);
        self.table_generations.remove(&name);
        self.bump_generation();
        self.catalog_epoch = self.generation;
        Ok(())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Immutable access to a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        let name = name.to_ascii_lowercase();
        self.tables
            .get(&name)
            .ok_or_else(|| BeasError::catalog(format!("unknown table {name:?}")))
    }

    /// Mutable access to a table.  Bumps the write generation (the access
    /// is assumed to mutate), which invalidates the table's memoized
    /// statistics.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let name = name.to_ascii_lowercase();
        let table = self
            .tables
            .get_mut(&name)
            .ok_or_else(|| BeasError::catalog(format!("unknown table {name:?}")))?;
        self.generation = self.lineage.fetch_add(1, Ordering::Relaxed) + 1;
        self.table_generations.insert(name, self.generation);
        Ok(table)
    }

    /// The write generation of one table: the lineage-unique value stamped
    /// by the last mutation that went through it.  Within one lineage, two
    /// databases where `table_generation(t)` agrees hold identical contents
    /// for `t`, even if their overall generations differ.
    pub fn table_generation(&self, name: &str) -> Option<u64> {
        self.table_generations
            .get(&name.to_ascii_lowercase())
            .copied()
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Insert a row into a table, returning its physical id.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<usize> {
        self.table_mut(table)?.insert(row)
    }

    /// Insert many rows into a table.
    pub fn insert_many(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<usize> {
        self.table_mut(table)?.insert_many(rows)
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.row_count()).sum()
    }

    /// Rough total size in bytes across all tables.
    pub fn estimated_bytes(&self) -> usize {
        self.tables.values().map(|t| t.estimated_bytes()).sum()
    }

    /// Statistics for a table, computed on demand and memoized until the
    /// *table* is next mutated (checked against its per-table generation, so
    /// writes to other tables don't evict the memo).  Usable through a
    /// shared reference, so the query planner's selectivity estimation costs
    /// one table scan per table per table-write generation instead of one
    /// per planned query.
    pub fn statistics(&self, table: &str) -> Result<Arc<TableStatistics>> {
        let name = table.to_ascii_lowercase();
        let t = self
            .tables
            .get(&name)
            .ok_or_else(|| BeasError::catalog(format!("unknown table {name:?}")))?;
        let table_generation = self.table_generations.get(&name).copied().unwrap_or(0);
        {
            let cache = self.statistics.0.lock().expect("stats cache lock");
            if let Some((generation, stats)) = cache.get(&name) {
                if *generation == table_generation {
                    return Ok(Arc::clone(stats));
                }
            }
        }
        let stats = Arc::new(TableStatistics::collect(t));
        self.statistics
            .0
            .lock()
            .expect("stats cache lock")
            .insert(name, (table_generation, Arc::clone(&stats)));
        Ok(stats)
    }

    /// Statistics bypassing the memo (always a fresh scan).
    pub fn statistics_uncached(&self, table: &str) -> Result<TableStatistics> {
        Ok(TableStatistics::collect(self.table(table)?))
    }

    /// Validate the catalog's structural invariants and every table's.
    /// O(total rows) — compiled only into debug builds and `--features
    /// validate` builds.
    ///
    /// Checks:
    /// 1. `table_generations` and `tables` hold exactly the same names, all
    ///    lower-cased,
    /// 2. no table generation, and not the catalog epoch, exceeds the
    ///    database generation (all are stamped from the same lineage
    ///    allocator, so neither can be *newer* than the database),
    /// 3. every memoized statistics entry refers to a live table and, when
    ///    its generation is current, agrees with that table's row count,
    /// 4. every table's own invariants hold ([`Table::check_invariants`]).
    #[cfg(any(debug_assertions, feature = "validate"))]
    pub fn check_invariants(&self) -> Result<()> {
        let fail = |msg: String| {
            Err(BeasError::storage(format!(
                "database invariant violated: {msg}"
            )))
        };
        for name in self.tables.keys() {
            if name != &name.to_ascii_lowercase() {
                return fail(format!("table name {name:?} is not lower-cased"));
            }
            if !self.table_generations.contains_key(name) {
                return fail(format!("table {name:?} has no generation stamp"));
            }
        }
        for (name, &gen) in &self.table_generations {
            if !self.tables.contains_key(name) {
                return fail(format!("generation stamp for missing table {name:?}"));
            }
            if gen > self.generation {
                return fail(format!(
                    "table {name:?} generation {gen} exceeds database generation {}",
                    self.generation
                ));
            }
        }
        if self.catalog_epoch > self.generation {
            return fail(format!(
                "catalog epoch {} exceeds database generation {}",
                self.catalog_epoch, self.generation
            ));
        }
        {
            let cache = self.statistics.0.lock().expect("stats cache lock");
            for (name, (gen, stats)) in cache.iter() {
                let Some(table) = self.tables.get(name) else {
                    return fail(format!("memoized statistics for missing table {name:?}"));
                };
                let current = self.table_generations.get(name).copied().unwrap_or(0);
                if *gen == current && stats.row_count != table.row_count() {
                    return fail(format!(
                        "current-generation statistics for {name:?} claim {} rows, table holds {}",
                        stats.row_count,
                        table.row_count()
                    ));
                }
            }
        }
        for table in self.tables.values() {
            table.check_invariants()?;
        }
        Ok(())
    }
}

impl SchemaProvider for Database {
    fn table_schema(&self, name: &str) -> Option<TableSchema> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .map(|t| t.schema().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_common::{ColumnDef, DataType, Value};

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
        db
    }

    #[test]
    fn create_insert_and_lookup() {
        let mut db = db();
        assert!(db.has_table("BUSINESS"));
        assert_eq!(db.table_names(), vec!["business".to_string()]);
        db.insert(
            "business",
            vec![Value::str("p1"), Value::str("bank"), Value::str("east")],
        )
        .unwrap();
        db.insert_many(
            "business",
            vec![vec![
                Value::str("p2"),
                Value::str("bank"),
                Value::str("west"),
            ]],
        )
        .unwrap();
        assert_eq!(db.table("business").unwrap().row_count(), 2);
        assert_eq!(db.total_rows(), 2);
        assert!(db.estimated_bytes() > 0);
        assert!(db.table("nosuch").is_err());
        assert!(db.insert("nosuch", vec![]).is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        let dup = TableSchema::new("business", vec![ColumnDef::new("x", DataType::Int)]).unwrap();
        assert!(db.create_table(dup).is_err());
    }

    #[test]
    fn drop_table() {
        let mut db = db();
        db.drop_table("business").unwrap();
        assert!(!db.has_table("business"));
        assert!(db.drop_table("business").is_err());
    }

    #[test]
    fn statistics_cache_invalidated_on_mutation() {
        let mut db = db();
        db.insert(
            "business",
            vec![Value::str("p1"), Value::str("bank"), Value::str("east")],
        )
        .unwrap();
        assert_eq!(db.statistics("business").unwrap().row_count, 1);
        // repeated reads at the same generation share the memoized stats
        let a = db.statistics("business").unwrap();
        let b = db.statistics("business").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        db.insert(
            "business",
            vec![Value::str("p2"), Value::str("bank"), Value::str("east")],
        )
        .unwrap();
        assert_eq!(db.statistics("business").unwrap().row_count, 2);
        assert_eq!(db.statistics_uncached("business").unwrap().row_count, 2);
        assert!(db.statistics("nosuch").is_err());
        // a clone's cache is independent of the original's
        let snapshot = db.clone();
        db.insert(
            "business",
            vec![Value::str("p3"), Value::str("bank"), Value::str("east")],
        )
        .unwrap();
        assert_eq!(db.statistics("business").unwrap().row_count, 3);
        assert_eq!(snapshot.statistics("business").unwrap().row_count, 2);
    }

    #[test]
    fn generation_bumps_on_every_mutation_path() {
        let mut db = Database::new();
        let g0 = db.generation();
        db.create_table(TableSchema::new("t", vec![ColumnDef::new("x", DataType::Int)]).unwrap())
            .unwrap();
        let g1 = db.generation();
        assert!(g1 > g0);
        assert_eq!(db.catalog_epoch(), g1);
        db.insert("t", vec![Value::Int(1)]).unwrap();
        let g2 = db.generation();
        assert!(g2 > g1);
        assert_eq!(
            db.catalog_epoch(),
            g1,
            "data writes leave the catalog alone"
        );
        db.insert_many("t", vec![vec![Value::Int(2)]]).unwrap();
        let g3 = db.generation();
        assert!(g3 > g2);
        db.table_mut("t").unwrap().delete_where(|_| true);
        let g4 = db.generation();
        assert!(g4 > g3);
        db.drop_table("t").unwrap();
        assert!(db.generation() > g4);
        // only the DDL steps moved the catalog epoch
        assert!(db.catalog_epoch() > g4);
        // reads do not bump
        let mut db2 = Database::new();
        db2.create_table(TableSchema::new("t", vec![ColumnDef::new("x", DataType::Int)]).unwrap())
            .unwrap();
        let g = db2.generation();
        let _ = db2.table("t").unwrap();
        let _ = db2.table_names();
        let _ = db2.statistics("t").unwrap();
        assert_eq!(db2.generation(), g);
        // failed mutations do not bump
        assert!(db2.table_mut("nosuch").is_err());
        assert_eq!(db2.generation(), g);
        // clones carry the generation
        assert_eq!(db2.clone().generation(), g);
    }

    #[test]
    fn per_table_generations_track_only_the_touched_table() {
        let mut db = Database::new();
        db.create_table(TableSchema::new("a", vec![ColumnDef::new("x", DataType::Int)]).unwrap())
            .unwrap();
        db.create_table(TableSchema::new("b", vec![ColumnDef::new("x", DataType::Int)]).unwrap())
            .unwrap();
        let ga = db.table_generation("a").unwrap();
        let gb = db.table_generation("B").unwrap();
        assert_ne!(ga, gb);
        // a write through table `a` re-stamps only `a`
        db.insert("a", vec![Value::Int(1)]).unwrap();
        assert!(db.table_generation("a").unwrap() > ga);
        assert_eq!(db.table_generation("b").unwrap(), gb);
        // stats memoized for `b` survive the write to `a`
        let sb = db.statistics("b").unwrap();
        db.insert("a", vec![Value::Int(2)]).unwrap();
        assert!(Arc::ptr_eq(&sb, &db.statistics("b").unwrap()));
        assert_eq!(db.statistics("a").unwrap().row_count, 2);
        // dropped tables lose their generation entry
        db.drop_table("b").unwrap();
        assert_eq!(db.table_generation("b"), None);
        assert_eq!(db.table_generation("nosuch"), None);
    }

    #[test]
    fn divergent_clones_never_share_a_generation() {
        // clones of one database draw generations from a shared allocator:
        // two clones mutated independently must end on different
        // generations even after the same number of writes — generation
        // equality within a lineage implies identical contents, which is
        // what lets the BeasSystem plan cache be shared across forks.
        let mut db = Database::new();
        db.create_table(TableSchema::new("t", vec![ColumnDef::new("x", DataType::Int)]).unwrap())
            .unwrap();
        let mut a = db.clone();
        let mut b = db.clone();
        a.insert("t", vec![Value::Int(1)]).unwrap();
        b.insert("t", vec![Value::Int(2)]).unwrap();
        assert_ne!(a.generation(), b.generation());
        assert!(a.generation() > db.generation());
        assert!(b.generation() > db.generation());
        // an unrelated lineage is free to reuse values — uniqueness is a
        // per-lineage property
        let fresh = Database::new();
        assert_eq!(fresh.generation(), 0);
    }

    #[test]
    fn schema_provider_impl() {
        let db = db();
        assert!(db.table_schema("business").is_some());
        assert!(db.table_schema("nosuch").is_none());
    }
}
