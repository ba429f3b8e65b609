#![forbid(unsafe_code)]
//! # beas-engine
//!
//! The conventional (baseline) relational query engine of the BEAS
//! workspace: a textbook parse → bind → plan → optimize → execute pipeline
//! over the in-memory storage layer.
//!
//! It plays two roles in the reproduction:
//!
//! 1. **Baseline** — the stand-in for PostgreSQL / MySQL / MariaDB in the
//!    paper's evaluation, selectable via [`OptimizerProfile`];
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
pub use plan::{JoinAlgorithm, LogicalPlan};
pub use planner::{conjoin_bound, finalize_plan, remap_expr, split_bound_conjuncts, Planner};
pub use profile::{ExecProfile, OptimizerProfile};
