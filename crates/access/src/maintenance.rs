//! Access-schema maintenance: what a write may do to a bound, and what it
//! reports.
//!
//! The Maintenance module of the AS catalog keeps the constraint indices
//! equal to indices rebuilt from the data, and keeps `D |= A`, across
//! inserts and deletes.  `BeasSystem` (the `beas-core` crate) owns the rows,
//! the access schema and the indices together and is the only thing that
//! writes them; this module holds the policy it applies and the outcome it
//! returns.

use beas_storage::CopyStats;

/// What to do when an insert would violate a cardinality bound.  Under
/// either policy every write leaves the data conforming to the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenancePolicy {
    /// Reject the insert with a conformance error.
    Strict,
    /// Accept the insert and raise the constraint's bound to cover it.
    AutoAdjust,
}

/// The outcome of a maintenance operation.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceOutcome {
    /// Rows inserted or deleted.
    pub rows_affected: usize,
    /// Constraints whose bound was automatically raised (id, new bound).
    pub adjusted: Vec<(String, u64)>,
    /// Always empty: no policy accepts a write that breaks a bound.  Kept
    /// for callers that still read it.
    pub flagged: Vec<(String, u64)>,
    /// What the batch copied because the storage it wrote was shared with
    /// another generation: table segments opened and merged and rows
    /// copied, index shards and buckets cloned.  Proportional to the batch.
    pub copied: CopyStats,
}
