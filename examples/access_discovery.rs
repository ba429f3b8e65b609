//! Access-schema discovery and maintenance — the AS Catalog's offline
//! services (demo scenario 1(d)).
//!
//! Discovers an access schema from the TLC data and its query workload under
//! a storage budget and registers it with the catalog.  One `BeasSystem`
//! then takes the data, the schema and the indices, checks the workload's
//! coverage, and exercises incremental maintenance under inserts and a bound
//! re-adjustment pass.
//!
//! ```bash
//! cargo run --release --example access_discovery
//! ```

use beas::access::{check_conformance, AsCatalog, MaintenancePolicy};
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
    println!("\ndiscovered access schema:\n{}", registered.schema);
    println!("\ncatalog metadata:\n{}", catalog.metadata_text());

    // One system owns the data, the schema and the indices the catalog
    // built; every later write goes through it.
    let registered = catalog.get("tlc").expect("registered above");
    let mut system = BeasSystem::new(db, registered.schema.clone(), registered.indexes.clone())
        .with_maintenance_policy(MaintenancePolicy::AutoAdjust);

    // How much of the workload does the discovered schema cover?
    let covered = workload
        .iter()
        .filter(|sql| system.check(sql).map(|r| r.covered).unwrap_or(false))
        .count();
    println!(
        "\n{covered} of {} workload queries are covered by the discovered schema",
        workload.len()
    );

    // Incremental maintenance: insert new call records and keep indices fresh.
    let calls = system.database().table("call")?;
    let new_calls: Vec<Row> = (0..100)
        .map(|i| {
            let mut row = calls.row(i).unwrap().clone();
            row[2] = Value::str("2016-07-28"); // a fresh day
            row
        })
        .collect();
    let outcome = system.insert_rows("call", new_calls)?;
    println!(
        "\nmaintenance: inserted {} rows, adjusted {} bounds",
        outcome.rows_affected,
        outcome.adjusted.len()
    );

    // Conformance by a scan of the data, then bounds re-adjusted from the
    // maxima the indices keep.
    let conformance = check_conformance(system.database(), system.access_schema())?;
    println!("\nconformance after maintenance:\n{conformance}");
    let changes = system.adjust_bounds(1.5)?;
    println!("bound adjustments (id, old, new): {changes:?}");
    Ok(())
}
