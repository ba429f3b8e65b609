//! Execution profiles for the baseline engine.

use std::fmt;

/// How the baseline engine *executes* plans, orthogonal to how it plans
/// them: row-at-a-time pull (the semantics reference) or the columnar
/// kernel path over per-morsel [`beas_common::ColumnBatch`]es.
///
/// The vectorized path falls back to the row path per morsel whenever a
/// fragment shape or type is uncovered or a kernel reports an error, so
/// every profile produces identical rows, order, errors and tuple
/// accounting (`tests/vectorized_semantics.rs` pins this differentially).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecProfile {
    /// Columnar kernels over morsel batches, with per-morsel row fallback.
    #[default]
    Vectorized,
    /// The classic pull-based row pipeline everywhere.
    RowAtATime,
    /// Kernels on even-indexed morsels, the row path on odd ones — the
    /// forced mid-query fallback configuration the differential harness
    /// uses to prove the two paths splice bit-exactly.
    Alternating,
}

impl ExecProfile {
    /// All execution profiles.
    pub fn all() -> [ExecProfile; 3] {
        [
            ExecProfile::Vectorized,
            ExecProfile::RowAtATime,
            ExecProfile::Alternating,
        ]
    }

    /// Whether this profile ever runs columnar kernels.
    pub fn vectorized(&self) -> bool {
        !matches!(self, ExecProfile::RowAtATime)
    }

    /// Whether morsel number `index` must take the row path even when the
    /// kernels cover the fragment.
    pub fn forces_row_path(&self, index: usize) -> bool {
        match self {
            ExecProfile::Vectorized => false,
            ExecProfile::RowAtATime => true,
            ExecProfile::Alternating => index % 2 == 1,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            ExecProfile::Vectorized => "vectorized",
            ExecProfile::RowAtATime => "row-at-a-time",
            ExecProfile::Alternating => "alternating",
        }
    }
}

impl fmt::Display for ExecProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_profile_flags() {
        assert_eq!(ExecProfile::default(), ExecProfile::Vectorized);
        assert_eq!(ExecProfile::all().len(), 3);
        assert!(ExecProfile::Vectorized.vectorized());
        assert!(!ExecProfile::RowAtATime.vectorized());
        assert!(ExecProfile::Alternating.vectorized());
        for i in 0..4 {
            assert!(!ExecProfile::Vectorized.forces_row_path(i));
            assert!(ExecProfile::RowAtATime.forces_row_path(i));
            assert_eq!(ExecProfile::Alternating.forces_row_path(i), i % 2 == 1);
        }
        assert_eq!(ExecProfile::Vectorized.to_string(), "vectorized");
    }
}
