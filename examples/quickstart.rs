//! Quickstart: build a TLC database, register an access schema, check
//! bounded evaluability and run a query both through BEAS and through the
//! conventional engine.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use beas::prelude::*;

fn main() -> Result<()> {
    // 1. Generate a small TLC telecom dataset (12 relations, 285 attributes).
    let config = beas::tlc::TlcConfig::at_scale(2);
    let db = beas::tlc::generate(&config)?;
    println!(
        "generated TLC at scale factor {}: {} tables, {} rows, ~{} KiB",
        config.scale_factor,
        db.table_names().len(),
        db.total_rows(),
        db.estimated_bytes() / 1024
    );

    // 2. Register the TLC access schema and build its constraint indices.
    let access_schema = beas::tlc::tlc_access_schema();
    println!(
        "\naccess schema ({} constraints):\n{}",
        access_schema.len(),
        access_schema
    );
    let system = BeasSystem::with_schema(db, access_schema)?;

    // 3. Check bounded evaluability of Example 2's query and show the plan.
    let (btype, region, pid, date) = beas::tlc::default_params();
    let q1 = beas::tlc::example2_query(btype, region, pid, date);
    let report = system.check(&q1)?;
    println!("\nQ1 covered: {}", report.covered);
    println!("deduced bound: {:?} tuples", report.deduced_bound);
    println!("\nbounded plan:\n{}", system.explain(&q1)?);

    // 4. Budget check without executing the query (demo scenario 1(a)).
    for budget in [10_000u64, 50_000_000] {
        println!(
            "can answer Q1 within {budget} tuples: {}",
            system.can_answer_within(&q1, budget)?
        );
    }

    // 5. Execute through BEAS and compare with the conventional engine.
    let outcome = system.execute_sql(&q1)?;
    println!(
        "\nBEAS: {} answers, bounded = {}, tuples accessed = {}",
        outcome.rows.len(),
        outcome.bounded,
        outcome.tuples_accessed
    );
    let engine = Engine::default();
    let baseline = engine.run(system.database(), &q1)?;
    println!(
        "conventional engine: {} answers, tuples accessed = {}",
        baseline.rows.len(),
        baseline.metrics.total_tuples_accessed()
    );
    println!(
        "\nanswers:\n{}",
        beas::common::tuple::render_rows(
            &outcome
                .schema
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .collect::<Vec<_>>(),
            &outcome.rows
        )
    );
    Ok(())
}
