#![forbid(unsafe_code)]
//! # beas-engine
//!
//! The conventional (baseline) relational query engine of the BEAS
//! workspace: a textbook parse → bind → plan → optimize → execute pipeline
//! over the in-memory storage layer.
//!
//! It plays two roles in the reproduction:
//!
//! 1. **Baseline** — the one conventional engine BEAS is compared with (the
//!    paper's evaluation uses PostgreSQL, MySQL and MariaDB) and the engine
//!    BEAS falls back to for queries it cannot bound;
//! 2. **Substrate** — BEAS executes the unbounded residue of *partially
//!    bounded* plans on this engine, exactly as the paper layers BEAS on a
//!    conventional DBMS.

pub mod analyze;
pub mod engine;
pub mod executor;
pub mod metrics;
pub mod plan;
pub mod planner;
pub mod profile;
pub(crate) mod vectorized;

pub use analyze::{analyze_tree, AnalyzeNode};
pub use engine::{Engine, EngineAnalysis, QueryResult};
pub use executor::{aggregate, execute, ExecOptions, Input, ParallelConfig};
pub use metrics::{
    format_duration, ExecutionMetrics, OperatorMetrics, PlanCacheOutcome, PlanCacheStats,
};
pub use plan::LogicalPlan;
pub use planner::{conjoin_bound, finalize_plan, remap_expr, split_bound_conjuncts, Planner};
pub use profile::ExecProfile;
