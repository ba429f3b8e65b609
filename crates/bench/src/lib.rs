#![forbid(unsafe_code)]
//! # beas-bench
//!
//! Reproductions of the BEAS paper's evaluation artefacts:
//!
//! * **Fig. 3 / Example 2** — per-operation breakdown and acceleration of Q1
//!   over the three baseline profiles (`fig3_report` binary);
//! * **Fig. 4** — scalability of Q1 as the TLC dataset grows
//!   (`fig4_report` binary, `fig4_scalability` Criterion bench);
//! * **the ">90 % of queries" claim** — all 11 TLC queries through BEAS and
//!   the baseline (`tlc_suite_report` binary);
//!
//! plus the kernel-isolating micro-benchmarks (`micro_ops`).  End-to-end and
//! per-layer performance is the closed-loop benchmark's job
//! (`beas_benchmark`).
//!
//! Shared setup helpers live here so binaries and benches measure the same
//! configurations.

use beas_core::BeasSystem;
use beas_engine::{Engine, OptimizerProfile, QueryResult};
use beas_storage::Database;
use beas_tlc::{generate, tlc_access_schema, TlcConfig};
use std::time::{Duration, Instant};

/// A prepared benchmark environment at one scale factor.
pub struct BenchEnv {
    /// The scale factor the data was generated at.
    pub scale_factor: u32,
    /// Total rows in the database.
    pub total_rows: usize,
    /// The BEAS system (database + access schema + indices).
    pub system: BeasSystem,
    /// A copy of the database for the baseline engines.
    pub baseline_db: Database,
}

impl BenchEnv {
    /// Generate TLC data at `scale_factor` and assemble BEAS over it.
    pub fn prepare(scale_factor: u32) -> BenchEnv {
        let db = generate(&TlcConfig::at_scale(scale_factor)).expect("TLC generation succeeds");
        let total_rows = db.total_rows();
        let baseline_db = db.clone();
        let system = BeasSystem::with_schema(db, tlc_access_schema())
            .expect("TLC data conforms to the schema");
        BenchEnv {
            scale_factor,
            total_rows,
            system,
            baseline_db,
        }
    }

    /// Q1 (Example 2) with the default benchmark parameters.
    pub fn q1(&self) -> String {
        let (btype, region, pid, date) = beas_tlc::default_params();
        beas_tlc::example2_query(btype, region, pid, date)
    }

    /// Run a query through BEAS, returning (elapsed, tuples accessed, rows).
    pub fn run_beas(&self, sql: &str) -> (Duration, u64, usize) {
        let start = Instant::now();
        let outcome = self
            .system
            .execute_sql(sql)
            .expect("BEAS execution succeeds");
        (start.elapsed(), outcome.tuples_accessed, outcome.rows.len())
    }

    /// Run a query through one baseline profile.
    pub fn run_baseline(&self, profile: OptimizerProfile, sql: &str) -> (Duration, QueryResult) {
        let engine = Engine::new(profile);
        let start = Instant::now();
        let result = engine
            .run(&self.baseline_db, sql)
            .expect("baseline execution succeeds");
        (start.elapsed(), result)
    }
}

/// Format a ratio as the paper does ("1953 times faster").
pub fn speedup(baseline: Duration, beas: Duration) -> f64 {
    baseline.as_secs_f64() / beas.as_secs_f64().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_and_run_q1() {
        let env = BenchEnv::prepare(1);
        assert_eq!(env.scale_factor, 1);
        assert!(env.total_rows > 5_000);
        let (beas_time, tuples, _) = env.run_beas(&env.q1());
        let (pg_time, result) = env.run_baseline(OptimizerProfile::PgLike, &env.q1());
        assert!(tuples < result.metrics.total_tuples_accessed());
        assert!(speedup(pg_time, beas_time) > 0.0);
    }
}
