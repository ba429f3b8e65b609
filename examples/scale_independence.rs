//! Scale independence (Fig. 4, from the public API).
//!
//! Runs Q1 (Example 2) at growing scale factors through BEAS and through the
//! conventional engine.  BEAS's tuples stay ≤ a deduced bound that does not
//! depend on `|D|`, printed beside them, while the engine's grow with `|D|`.
//! BEAS's cost is flat only where every fetch step's fan-out is scale-free:
//! Q1 reads the businesses of one type and region, a group the generator
//! grows with the data, so its tuples grow too, far below the bound.
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
        "{:>5} {:>10} | {:>12} {:>12} {:>12} | {:>12} {:>16}",
        "scale", "rows", "BEAS time", "BEAS tuples", "BEAS bound", "DBMS time", "DBMS tuples"
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
        let bound = outcome.deduced_bound.expect("Q1 is covered");
        assert!(outcome.tuples_accessed <= bound);
        println!(
            "{:>5} {:>10} | {:>12} {:>12} {:>12} | {:>12} {:>16}",
            scale,
            rows,
            format!("{:.2?}", beas_time),
            outcome.tuples_accessed,
            bound,
            format!("{:.2?}", dbms_time),
            baseline.metrics.total_tuples_accessed()
        );
    }
    println!("\nBEAS's tuples stay within a bound set by the access schema and the query alone;");
    println!("they are flat only where every fetch step's fan-out is scale-free.  The");
    println!("conventional engine's grow linearly with the database.");
    Ok(())
}
