#![forbid(unsafe_code)]
//! Regenerates Fig. 4: scalability of Q1 as the TLC dataset grows.
//!
//! The paper varies TLC from 1 GB to 200 GB; BEAS stays at ~1 s while
//! PostgreSQL / MySQL / MariaDB grow to 1932 s / 6187 s / 5243 s.  Here the
//! dataset is scaled by the generator's scale factor (default sweep
//! 1–16, configurable), BEAS is compared with the conventional engine, and
//! the same shape is expected: a flat BEAS series and an engine series that
//! grows linearly with the data.
//!
//! ```bash
//! cargo run --release -p beas-bench --bin fig4_report [max_scale]
//! ```

use beas_bench::{speedup, BenchEnv};

fn main() {
    let max_scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let mut scales = vec![1u32, 2, 4, 8, 16, 32, 64];
    scales.retain(|s| *s <= max_scale);
    println!("== Fig. 4 reproduction: scalability of Q1 over growing TLC data ==\n");
    println!(
        "{:>6} {:>10} | {:>12} {:>14} | {:>12} {:>14} | {:>8}",
        "scale", "rows", "BEAS", "BEAS tuples", "engine", "engine tuples", "speedup"
    );
    for scale in scales {
        let env = BenchEnv::prepare(scale);
        let q1 = env.q1();
        let (beas_time, beas_tuples, beas_rows) = env.run_beas(&q1);
        let (engine_time, result) = env.run_baseline(&q1);
        assert_eq!(result.rows.len(), beas_rows, "answers must agree");
        println!(
            "{:>6} {:>10} | {:>12} {:>14} | {:>12} {:>14} | {:>7.0}x",
            scale,
            env.total_rows,
            format!("{beas_time:.2?}"),
            beas_tuples,
            format!("{engine_time:.2?}"),
            result.metrics.total_tuples_accessed(),
            speedup(engine_time, beas_time),
        );
    }
    println!("\npaper reference (1→200 GB): BEAS ≈ 1 s throughout; PostgreSQL 0.1 s → 1932 s,");
    println!("MySQL 8.8 s → 6187 s, MariaDB 22.4 s → 5243 s.  Expected shape here: the BEAS");
    println!("column (time and tuples) stays flat while the engine's grows with the data.");
}
