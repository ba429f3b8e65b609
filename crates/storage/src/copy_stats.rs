//! What copy-on-write writes have cost so far.

use std::ops::{AddAssign, Sub};

/// Running totals of the private data a [`Table`](crate::Table) or a
/// [`ConstraintIndex`](crate::ConstraintIndex) has materialised because a
/// write landed on storage shared with another generation.  A table fills
/// the first three counters, an index the last two.  The totals travel with
/// clones, so the cost of one write batch is the difference of two readings
/// taken on the same lineage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Row segments started (the tail was full, or shared and left alone).
    pub segments_opened: u64,
    /// Merges of two adjacent undersized segments into one.
    pub segments_merged: u64,
    /// Rows deep-copied out of a shared segment into a private one.
    pub rows_copied: u64,
    /// Index shards whose key → bucket map was copied (handles only).
    pub shards_cloned: u64,
    /// Index buckets deep-copied before being modified.
    pub buckets_cloned: u64,
}

impl AddAssign for CopyStats {
    fn add_assign(&mut self, other: CopyStats) {
        self.segments_opened += other.segments_opened;
        self.segments_merged += other.segments_merged;
        self.rows_copied += other.rows_copied;
        self.shards_cloned += other.shards_cloned;
        self.buckets_cloned += other.buckets_cloned;
    }
}

impl Sub for CopyStats {
    type Output = CopyStats;

    /// The work done between an `earlier` reading and this one.
    fn sub(self, earlier: CopyStats) -> CopyStats {
        CopyStats {
            segments_opened: self.segments_opened - earlier.segments_opened,
            segments_merged: self.segments_merged - earlier.segments_merged,
            rows_copied: self.rows_copied - earlier.rows_copied,
            shards_cloned: self.shards_cloned - earlier.shards_cloned,
            buckets_cloned: self.buckets_cloned - earlier.buckets_cloned,
        }
    }
}
