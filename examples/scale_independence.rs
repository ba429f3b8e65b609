//! Scale independence (Fig. 4, from the public API).
//!
//! Runs Q1 (Example 2) at growing scale factors through BEAS and through the
//! conventional engine: BEAS's cost stays flat while the engine's grows with
//! `|D|`.
//!
//! ```bash
//! cargo run --release --example scale_independence
//! ```

use beas::prelude::*;
use std::time::Instant;

fn main() -> Result<()> {
    let (btype, region, pid, date) = beas::tlc::default_params();
    let q1 = beas::tlc::example2_query(btype, region, pid, date);

    println!(
        "{:>5} {:>10} | {:>12} {:>16} | {:>12} {:>16}",
        "scale", "rows", "BEAS time", "BEAS tuples", "DBMS time", "DBMS tuples"
    );
    for scale in [1u32, 2, 4, 8, 16] {
        let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(scale))?;
        let rows = db.total_rows();
        let baseline_db = db.clone();
        let system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema())?;

        let t = Instant::now();
        let outcome = system.execute_sql(&q1)?;
        let beas_time = t.elapsed();

        let engine = Engine::default();
        let t = Instant::now();
        let baseline = engine.run(&baseline_db, &q1)?;
        let dbms_time = t.elapsed();

        assert_eq!(outcome.rows.len(), baseline.rows.len());
        println!(
            "{:>5} {:>10} | {:>12} {:>16} | {:>12} {:>16}",
            scale,
            rows,
            format!("{:.2?}", beas_time),
            outcome.tuples_accessed,
            format!("{:.2?}", dbms_time),
            baseline.metrics.total_tuples_accessed()
        );
    }
    println!("\nBEAS's tuples-accessed column is bounded by the access schema and the query only;");
    println!("the conventional engine's grows linearly with the database.");
    Ok(())
}
