#![forbid(unsafe_code)]
//! Runs the full TLC workload (Q1–Q11) through BEAS and the conventional engine,
//! backing the paper's claim that BEAS "outperforms commercial DBMS by orders
//! of magnitude for more than 90% of their queries".
//!
//! ```bash
//! cargo run --release -p beas-bench --bin tlc_suite_report [scale_factor]
//! ```

use beas_bench::{speedup, BenchEnv};

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    println!("== TLC workload: BEAS vs conventional evaluation (scale factor {scale}) ==\n");
    let env = BenchEnv::prepare(scale);
    println!(
        "{:<4} {:<9} {:>10} {:>14} | {:>10} {:>14} | {:>9} {:>10}",
        "id",
        "mode",
        "BEAS time",
        "BEAS tuples",
        "DBMS time",
        "DBMS tuples",
        "speedup",
        "access cut"
    );
    let mut faster = 0usize;
    let mut covered = 0usize;
    let queries = beas_tlc::all_queries();
    for q in &queries {
        let report = env.system.check(&q.sql).expect("check succeeds");
        let (beas_time, beas_tuples, _) = env.run_beas(&q.sql);
        let (dbms_time, result) = env.run_baseline(&q.sql);
        let dbms_tuples = result.metrics.total_tuples_accessed();
        let ratio = speedup(dbms_time, beas_time);
        if ratio > 1.0 {
            faster += 1;
        }
        if report.covered {
            covered += 1;
        }
        println!(
            "{:<4} {:<9} {:>10} {:>14} | {:>10} {:>14} | {:>8.1}x {:>9.1}x",
            q.id,
            if report.covered { "bounded" } else { "partial" },
            format!("{beas_time:.2?}"),
            beas_tuples,
            format!("{dbms_time:.2?}"),
            dbms_tuples,
            ratio,
            dbms_tuples as f64 / beas_tuples.max(1) as f64,
        );
    }
    println!(
        "\n{covered}/11 queries boundedly evaluable ({:.0}%); {faster}/11 faster than the baseline",
        covered as f64 * 100.0 / queries.len() as f64
    );
    println!("paper reference: all 11 TLC queries are boundedly evaluable under a small access");
    println!(
        "schema, and BEAS beats the commercial systems by orders of magnitude on >90% of them."
    );
}
