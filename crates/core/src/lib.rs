#![forbid(unsafe_code)]
//! # beas-core
//!
//! The BEAS system itself — the paper's primary contribution: bounded
//! evaluation of SQL queries under an access schema.
//!
//! The online pipeline mirrors Fig. 1 of the paper:
//!
//! * [`graph`] — normalizes a bound query into atoms, constants, equality
//!   edges and needed attributes;
//! * [`checker`] — the **BE Checker**: the PTIME coverage test of the
//!   Feasibility Theorem's effective syntax;
//! * [`planner`] / [`plan`] — the **BE Plan Generator**: bounded plans built
//!   from `fetch` operations, each annotated with a deduced bound;
//! * [`executor`] — the **BE Plan Executor**: runs the plan's `fetch` steps
//!   (`fetch.rs`: keys, probes, join) against the constraint indices and
//!   hands the bounded intermediates to the engine's operators for
//!   finalization;
//! * [`partial`] — the **BE Plan Optimizer**: partially bounded plans for
//!   queries that are not covered;
//! * [`approx`] — resource-bounded approximation: the same fetch steps
//!   under a tuple budget;
//! * [`discovery`] — the AS catalog's **Discovery** module: mines an access
//!   schema from a dataset and a query workload, reading each query through
//!   the same binder and [`graph`] the checker uses;
//! * [`analyzer`] — the Fig. 3-style BEAS-versus-engine report;
//! * [`system`] — [`BeasSystem`], the facade tying it all together on top of
//!   the storage layer and the conventional engine.

pub mod analyzer;
pub mod approx;
pub mod checker;
pub mod discovery;
pub mod executor;
mod fetch;
pub mod graph;
pub mod partial;
pub mod plan;
pub mod planner;
pub mod system;

pub use analyzer::{QueryAnalysis, SystemMeasurement};
pub use approx::ApproximateExecution;
pub use checker::{Checker, CoverageResult, FetchStep};
pub use discovery::{
    discover, discover_from_statements, Candidate, DiscoveryConfig, DiscoveryReport,
};
pub use executor::{
    execute_bounded, execute_bounded_with, execute_ctx_with, BoundedExecution, CtxResult,
    FetchConfig,
};
pub use graph::{Atom, Constant, QueryGraph};
pub use partial::{
    execute_partially_bounded, execute_partially_bounded_with, PartialExecution, PartialOptions,
    ReductionSaving, DEFAULT_REDUCTION_MIN_SAVINGS,
};
pub use plan::{BoundedPlan, KeyParam, KeySource, PlannedFetch, ResolvedFetch};
pub use planner::{generate_bounded_plan, generate_plan_for_steps};
pub use system::{BeasSystem, CheckReport, EvaluationMode, ExecutionOutcome, PreparedQuery};
