#![forbid(unsafe_code)]
//! # beas-common
//!
//! Shared foundation types for the BEAS bounded-evaluation engine:
//! SQL values, data types, dates, relation schemas, rows (including the
//! *partial tuples* that bounded plans fetch through access-constraint
//! indices), and the crate-wide error type.
//!
//! Everything in this crate is deliberately independent of storage, parsing
//! and planning so that every other crate in the workspace can depend on it
//! without cycles.

pub mod batch;
pub mod date;
pub mod error;
pub mod key;
pub mod quota;
pub mod rowref;
pub mod schema;
pub mod stream;
pub mod tuple;
pub mod types;
pub mod value;

pub use batch::{Column, ColumnBatch, ColumnData, ValueRef, NULL_VALUE};
pub use date::Date;
pub use error::{BeasError, Result};
pub use key::{
    canonical_hash, canonical_key_hash, canonical_key_value, index_key, is_canonical_key_value,
    join_key, joinable,
};
pub use quota::{QuotaTracker, ResourceQuota};
pub use rowref::{dedupe, RowRef, RowSeg, ValueRow};
pub use schema::{ColumnDef, ColumnRef, Field, Schema, TableSchema};
pub use stream::RowStream;
pub use tuple::Row;
pub use types::DataType;
pub use value::Value;
