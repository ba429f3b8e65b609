#![forbid(unsafe_code)]
//! # BEAS — Bounded Evaluation of SQL Queries
//!
//! A from-scratch Rust reproduction of the BEAS system (SIGMOD 2017 demo):
//! querying relations with *bounded resources* under an access schema — a set
//! of cardinality constraints with associated indices.
//!
//! This facade crate re-exports the public API of the workspace crates so
//! that applications can depend on a single `beas` crate:
//!
//! * [`obs`] — low-overhead tracing, timing and metrics export;
//! * [`common`] — values, types, schemas, tuples;
//! * [`sql`] — SQL lexer/parser/binder for the supported fragment;
//! * [`storage`] — in-memory tables, catalog and indices;
//! * [`engine`] — the conventional (baseline) DBMS engine;
//! * [`access`] — access constraints, conformance, indices, maintenance;
//! * [`core`] — the BEAS bounded-evaluation layer (checker, planner, executor,
//!   access-schema discovery);
//! * [`tlc`] — the TLC telecom benchmark used in the paper's evaluation.
//!
//! ## Quick example
//!
//! ```
//! use beas::prelude::*;
//!
//! // A small TLC database (Example 1's schema plus the other 9 relations).
//! let db = beas::tlc::tiny_database(200);
//! let access_schema = beas::tlc::tlc_access_schema();
//!
//! // Build the constraint indices and assemble the BEAS system.
//! let system = BeasSystem::with_schema(db, access_schema).unwrap();
//!
//! // Q1 is the query of Example 2 in the paper; it is boundedly evaluable.
//! let (btype, region, pid, date) = beas::tlc::default_params();
//! let q1 = beas::tlc::example2_query(btype, region, pid, date);
//! assert!(system.check(&q1).unwrap().covered);
//! let outcome = system.execute_sql(&q1).unwrap();
//! assert!(outcome.bounded);
//! ```

pub use beas_access as access;
pub use beas_common as common;
pub use beas_core as core;
pub use beas_engine as engine;
pub use beas_obs as obs;
pub use beas_service as service;
pub use beas_sql as sql;
pub use beas_storage as storage;
pub use beas_tlc as tlc;

// `beas_core` and `beas_engine` both expose `plan`, `planner` and `executor`
// modules — the bounded layer and the conventional layer mirror each other by
// design.  Re-export each family under a distinct top-level name so callers
// can reach either without spelling out `beas::core::plan` vs
// `beas::engine::plan`, and so no pair of facade re-exports collides.
pub use beas_core::{
    executor as bounded_executor, plan as bounded_plan, planner as bounded_planner,
};
pub use beas_engine::{
    executor as engine_executor, plan as engine_plan, planner as engine_planner,
};

/// Commonly used items, for glob import in examples and applications.
///
/// Every name here is re-exported exactly once (selective re-exports, never
/// two globs over the mirrored `core`/`engine` module trees), so
/// `use beas::prelude::*` can never produce an ambiguous-name error.
pub mod prelude {
    pub use beas_access::{AccessConstraint, AccessSchema};
    pub use beas_common::{BeasError, DataType, Date, Result, Row, Schema, TableSchema, Value};
    pub use beas_common::{QuotaTracker, ResourceQuota};
    pub use beas_core::QueryAnalysis;
    pub use beas_core::{
        BeasSystem, BoundedPlan, CheckReport, CoverageResult, EvaluationMode, ExecutionOutcome,
    };
    pub use beas_engine::{
        Engine, EngineAnalysis, ExecProfile, ExecutionMetrics, LogicalPlan, QueryResult,
    };
    pub use beas_obs::{set_trace_level, trace_level, TraceLevel};
    pub use beas_service::{Decision, QueryService, Session, SessionOutcome, SubmissionTrace};
    pub use beas_storage::{Database, Table};
}
