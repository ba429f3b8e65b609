//! CDR (call detail record) analysis — the demo's industry scenario.
//!
//! Walks the whole TLC workload (Q1–Q11) through BEAS: coverage check,
//! bounded or partially bounded execution, and a Fig. 3-style performance
//! analysis of Q1 against the conventional engine, timed per operator.
//!
//! ```bash
//! cargo run --release --example cdr_analysis
//! ```

use beas::prelude::*;

fn main() -> Result<()> {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(3))?;
    let system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema())?;

    let mut covered = 0usize;
    println!(
        "{:<4} {:<9} {:>9} {:>16} {:>14}  description",
        "id", "mode", "answers", "tuples accessed", "deduced bound"
    );
    for q in beas::tlc::all_queries() {
        let report = system.check(&q.sql)?;
        let outcome = system.execute_sql(&q.sql)?;
        if report.covered {
            covered += 1;
        }
        println!(
            "{:<4} {:<9} {:>9} {:>16} {:>14}  {}",
            q.id,
            match outcome.mode {
                beas::core::EvaluationMode::Bounded => "bounded",
                beas::core::EvaluationMode::PartiallyBounded => "partial",
                beas::core::EvaluationMode::Conventional => "dbms",
            },
            outcome.rows.len(),
            outcome.tuples_accessed,
            report
                .deduced_bound
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".to_string()),
            q.description
        );
    }
    println!(
        "\n{covered} of 11 queries are boundedly evaluable under the TLC access schema ({}%)",
        covered * 100 / 11
    );

    // Detailed Fig. 3-style analysis of Q1 (Example 2).
    let (btype, region, pid, date) = beas::tlc::default_params();
    let q1 = beas::tlc::example2_query(btype, region, pid, date);
    println!("\n================ performance analysis of Q1 (Example 2) ================\n");
    let analysis = system.explain_analyze(&q1)?;
    println!("{analysis}");

    // Resource-bounded approximation when only a tiny budget is affordable.
    let approx = system.approximate(&q1, 500)?;
    println!(
        "approximate answer under a 500-tuple budget: {} rows, coverage ≥ {:.2}, tuples accessed = {}",
        approx.rows.len(),
        approx.coverage,
        approx.tuples_accessed
    );
    Ok(())
}
