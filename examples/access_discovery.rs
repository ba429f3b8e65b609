//! Access-schema discovery and maintenance — the AS Catalog's offline
//! services (demo scenario 1(d)).
//!
//! Discovers an access schema from the TLC data and its query workload under
//! a storage budget, registers it with the catalog, then exercises
//! incremental maintenance under inserts and a bound re-adjustment pass.
//!
//! ```bash
//! cargo run --release --example access_discovery
//! ```

use beas::access::{AsCatalog, MaintenancePolicy};
use beas::core::{discover, DiscoveryConfig};
use beas::prelude::*;

fn main() -> Result<()> {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(2))?;
    let workload = beas::tlc::workload();

    // Discover under an index storage budget.
    let mut catalog = AsCatalog::new();
    let config = DiscoveryConfig {
        storage_budget_bytes: Some(4 * 1024 * 1024),
        ..Default::default()
    };
    let (schema, report) = discover(&db, &workload, &config)?;
    let registered = catalog.register("tlc", &db, schema)?;
    println!(
        "discovery considered {} candidates, selected {} constraints (~{} KiB of indices)",
        report.candidates.len(),
        report.selected.len(),
        report.total_bytes / 1024
    );
    let (schema, indexes) = (registered.schema.clone(), registered.indexes.clone());
    println!("\ndiscovered access schema:\n{schema}");
    println!("\ncatalog metadata:\n{}", catalog.metadata_text());

    // How much of the workload does the discovered schema cover?
    let system = BeasSystem::with_schema(db.clone(), schema.clone())?;
    let covered = workload
        .iter()
        .filter(|sql| system.check(sql).map(|r| r.covered).unwrap_or(false))
        .count();
    println!(
        "\n{covered} of {} workload queries are covered by the discovered schema",
        workload.len()
    );

    // Incremental maintenance: insert new call records and keep indices fresh.
    let mut db = db;
    let mut schema = schema;
    let mut indexes = indexes;
    let maintainer = catalog.maintainer(MaintenancePolicy::AutoAdjust);
    let new_calls: Vec<beas::common::Row> = (0..100)
        .map(|i| {
            let mut row = db.table("call").unwrap().row(i).unwrap().clone();
            row[2] = Value::str("2016-07-28"); // a fresh day
            row
        })
        .collect();
    let outcome = maintainer.insert_rows(&mut db, &mut schema, &mut indexes, "call", new_calls)?;
    println!(
        "\nmaintenance: inserted {} rows, adjusted {} bounds, flagged {} violations",
        outcome.rows_affected,
        outcome.adjusted.len(),
        outcome.flagged.len()
    );

    // Periodic re-validation and bound adjustment.
    let conformance = maintainer.revalidate(&db, &schema)?;
    println!("\nconformance after maintenance:\n{conformance}");
    let changes = maintainer.adjust_bounds(&db, &mut schema, 1.5)?;
    println!("bound adjustments (id, old, new): {changes:?}");
    Ok(())
}
