#![forbid(unsafe_code)]
//! # beas-storage
//!
//! In-memory relational storage for the BEAS workspace:
//!
//! * [`Table`] — a validated, schema-checked row store;
//! * [`Database`] — a named collection of tables implementing the SQL
//!   binder's `SchemaProvider`;
//! * [`ConstraintIndex`] — the paper's *modified hash index* backing an
//!   access constraint `R(X → Y, N)`: each `X`-key maps to the set of at most
//!   `N` distinct `Y` partial tuples;
//! * [`TableStatistics`] — per-table/column statistics for the baseline
//!   cost model and for access-schema discovery;
//! * [`CopyStats`] — what copy-on-write writes to tables and constraint
//!   indices have copied.

pub mod constraint_index;
pub mod copy_stats;
pub mod database;
pub mod stats;
pub mod table;

pub use constraint_index::{ConstraintIndex, IndexDump};
pub use copy_stats::CopyStats;
pub use database::Database;
pub use stats::{ColumnStatistics, TableStatistics};
pub use table::{CoercedBatch, Table, MORSEL_ROWS, SEGMENT_ROWS};
