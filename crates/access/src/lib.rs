#![forbid(unsafe_code)]
//! # beas-access
//!
//! Access schemas for bounded query evaluation: the combination of
//! cardinality constraints and associated indices that the BEAS system (the
//! `beas-core` crate) reasons about.
//!
//! * [`AccessConstraint`] / [`AccessSchema`] — `R(X → Y, N)` constraints and
//!   sets thereof, with a textual exchange format;
//! * [`conformance`] — checking `D |= A`;
//! * [`indexes`] — building the *modified hash indices* that back each
//!   constraint, and fetching partial tuples through them;
//! * [`maintenance`] — incremental index maintenance and bound adjustment
//!   under inserts/deletes (the Maintenance module);
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
    check_conformance, check_constraint, require_conformance, ConformanceReport,
    ConstraintConformance,
};
pub use constraint::AccessConstraint;
pub use indexes::{build_index, build_indexes, AccessIndexes};
pub use maintenance::{Maintainer, MaintenanceOutcome, MaintenancePolicy};
pub use schema::AccessSchema;
