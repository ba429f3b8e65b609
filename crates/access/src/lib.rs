#![forbid(unsafe_code)]
//! # beas-access
//!
//! Access schemas for bounded query evaluation: the combination of
//! cardinality constraints and associated indices that the BEAS system (the
//! `beas-core` crate) reasons about.
//!
//! * [`AccessConstraint`] / [`AccessSchema`] — `R(X → Y, N)` constraints and
//!   sets thereof, with a textual exchange format;
//! * [`conformance`] — checking `D |= A` by scanning the data;
//! * [`indexes`] — building the *modified hash indices* that back each
//!   constraint, refusing `D ⊭ A`, and fetching partial tuples through them;
//! * [`maintenance`] — the policy and outcome of a write; the writes
//!   themselves are `BeasSystem`'s, which owns data, schema and indices;
//! * [`catalog`] — the AS Catalog tying schema, indices and metadata together
//!   per application.
//!
//! Discovery — mining an access schema from a dataset and a query workload —
//! reads queries through the BE Checker's query graph and lives in
//! `beas-core`.

pub mod catalog;
pub mod conformance;
pub mod constraint;
pub mod indexes;
pub mod maintenance;
pub mod schema;

pub use catalog::{AsCatalog, RegisteredSchema, SchemaMetadata};
pub use conformance::{
    check_conformance, check_constraint, ConformanceReport, ConstraintConformance,
};
pub use constraint::AccessConstraint;
pub use indexes::{build_indexes, AccessIndexes};
pub use maintenance::{MaintenanceOutcome, MaintenancePolicy};
pub use schema::AccessSchema;
