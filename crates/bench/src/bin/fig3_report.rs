#![forbid(unsafe_code)]
//! Regenerates Fig. 3 / Example 2: the per-operation performance analysis of
//! Q1 on a TLC dataset, comparing BEAS with the conventional engine.  Both
//! runs are timed per operator ([`beas_core::BeasSystem::explain_analyze`]).
//! The paper compares with PostgreSQL, MySQL and MariaDB; their reference
//! numbers are printed as text.
//!
//! ```bash
//! cargo run --release -p beas-bench --bin fig3_report [scale_factor]
//! ```

use beas_bench::BenchEnv;

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    println!("== Fig. 3 reproduction: performance analysis of Q1 (Example 2) ==");
    println!("generating TLC at scale factor {scale} ...");
    let env = BenchEnv::prepare(scale);
    println!("database: {} rows total\n", env.total_rows);

    let q1 = env.q1();
    let analysis = env
        .system
        .explain_analyze(&q1)
        .expect("analysis of Q1 succeeds");
    println!("{analysis}");

    println!("paper reference point (20 GB TLC, authors' testbed):");
    println!("  BEAS 96.13 ms; 1953x vs PostgreSQL, 6562x vs MySQL, 5135x vs MariaDB;");
    println!("  bounded plan accesses ≤ 12,026,000 tuples via 3 access constraints.");
    println!("expected shape here: BEAS beats the engine by orders of magnitude,");
    println!(
        "its deduced bound is 2000 + 24,000 + 12,000,000 tuples, and it employs 3 constraints."
    );
}
