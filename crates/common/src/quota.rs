//! Per-session resource quotas and cooperative cancellation.
//!
//! The paper's contract is that BEAS decides *before* execution whether a
//! query fits a resource budget.  A concurrent query service needs the
//! runtime half of that contract too: a query admitted on an estimate must
//! stop — promptly and cleanly — the moment its *actual* data access
//! exceeds the budget it was admitted under, or its deadline passes.
//!
//! * [`ResourceQuota`] is the declarative budget a session carries: a cap
//!   on tuples accessed, a cap on answer rows, and a wall-clock deadline.
//! * [`QuotaTracker`] is the shared runtime enforcer derived from a quota
//!   when a query starts.  Both executors charge their data access against
//!   it (the same `tuples_accessed` accounting the metrics report) and
//!   check it *cooperatively* at scan-row / fetch-step / blocking-loop
//!   granularity — there is no preemption, so a trip surfaces at the next
//!   checkpoint as a structured [`BeasError::QuotaExceeded`].
//!
//! A query runs on the thread that submitted it, so its charges land in one
//! deterministic order: the row and the columnar scans trip at the same
//! tuple with the same message.  The tracker is still all atomics, so a
//! caller on another thread can [`QuotaTracker::cancel`] a running query
//! without a lock.

use crate::error::{BeasError, Result};
use beas_obs::clock;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// How often (in charged tuples) the tracker re-checks the wall-clock
/// deadline: reading the clock costs tens of nanoseconds, so per-row checks
/// would dominate cheap scans.  A stale check window of 4096 tuples keeps
/// deadline overshoot bounded by microseconds of *scan* work; phases that
/// touch no base data (a blocking sort or aggregation fold) checkpoint
/// themselves every few thousand processed rows inside the engine's
/// blocking loops (`engine::executor::BLOCKING_CHECK_ROWS`), so they are
/// bounded the same way.
const DEADLINE_CHECK_TUPLES: u64 = 4096;

/// A declarative per-session resource budget.
///
/// `None` in any field means "unlimited" for that resource; the default
/// quota is unlimited in every dimension.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceQuota {
    /// Maximum base-table / index tuples a query may access.
    pub max_tuples: Option<u64>,
    /// Maximum answer rows a query may return.
    pub max_rows: Option<u64>,
    /// Wall-clock budget per query, measured from admission.
    pub deadline: Option<Duration>,
}

impl ResourceQuota {
    /// The unlimited quota (every field `None`).
    pub fn unlimited() -> Self {
        ResourceQuota::default()
    }

    /// Cap the tuples a query may access.
    pub fn with_max_tuples(mut self, max_tuples: u64) -> Self {
        self.max_tuples = Some(max_tuples);
        self
    }

    /// Cap the answer rows a query may return.
    pub fn with_max_rows(mut self, max_rows: u64) -> Self {
        self.max_rows = Some(max_rows);
        self
    }

    /// Give each query a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether every dimension is unlimited.
    pub fn is_unlimited(&self) -> bool {
        self.max_tuples.is_none() && self.max_rows.is_none() && self.deadline.is_none()
    }

    /// Start enforcing this quota: the deadline clock starts now.
    pub fn tracker(&self) -> QuotaTracker {
        QuotaTracker {
            tuples: AtomicU64::new(0),
            max_tuples: self.max_tuples.unwrap_or(u64::MAX),
            max_rows: self.max_rows.unwrap_or(u64::MAX),
            deadline: self.deadline.map(|d| (clock::now(), d)),
            tripped: AtomicU8::new(TRIP_NONE),
            rows_seen: AtomicU64::new(0),
        }
    }
}

// Trip causes, latched first-writer-wins so every later check reports the
// same resource in its error.
const TRIP_NONE: u8 = 0;
const TRIP_TUPLES: u8 = 1;
const TRIP_ROWS: u8 = 2;
const TRIP_DEADLINE: u8 = 3;
const TRIP_CANCELLED: u8 = 4;

/// The runtime enforcer of a [`ResourceQuota`], shared by every operator of
/// one query execution.
///
/// Enforcement is cooperative: executors call [`QuotaTracker::charge_tuples`]
/// as they touch base data and [`QuotaTracker::checkpoint`] at fetch steps
/// and inside blocking loops.  Once any call returns an error the tracker
/// latches *tripped*, so every subsequent check fails fast and the whole
/// pipeline unwinds promptly.
#[derive(Debug)]
pub struct QuotaTracker {
    tuples: AtomicU64,
    max_tuples: u64,
    max_rows: u64,
    /// Deadline as (start, budget); `checkpoint` compares elapsed time.
    deadline: Option<(Instant, Duration)>,
    /// `TRIP_NONE`, or the first cause that tripped the tracker — latched
    /// first-writer-wins, so every later failure reports the same resource.
    tripped: AtomicU8,
    /// The answer-row count behind a rows trip, written before the latch so
    /// re-reports carry the real diagnostic.
    rows_seen: AtomicU64,
}

impl QuotaTracker {
    /// Tuples charged so far.
    pub fn tuples_used(&self) -> u64 {
        self.tuples.load(Ordering::Relaxed)
    }

    /// Whether the quota has already tripped (or was cancelled).
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire) != TRIP_NONE
    }

    /// Cancel the query from outside (treated as a tripped quota: every
    /// subsequent checkpoint fails with resource `"cancelled"`).
    pub fn cancel(&self) {
        self.trip(TRIP_CANCELLED);
    }

    /// Latch `cause` as the trip reason unless another thread already
    /// tripped, and return the error describing the winning cause.
    fn trip(&self, cause: u8) -> BeasError {
        let _ =
            self.tripped
                .compare_exchange(TRIP_NONE, cause, Ordering::AcqRel, Ordering::Acquire);
        self.trip_error()
    }

    /// The error for the latched trip cause (`is_tripped` must hold).
    fn trip_error(&self) -> BeasError {
        match self.tripped.load(Ordering::Acquire) {
            TRIP_ROWS => BeasError::QuotaExceeded {
                resource: "rows",
                used: self.rows_seen.load(Ordering::Acquire),
                limit: self.max_rows,
            },
            TRIP_DEADLINE => {
                let (start, budget) = self.deadline.unwrap_or((clock::now(), Duration::ZERO));
                BeasError::QuotaExceeded {
                    resource: "deadline_ms",
                    used: start.elapsed().as_millis() as u64,
                    limit: budget.as_millis() as u64,
                }
            }
            TRIP_CANCELLED => BeasError::QuotaExceeded {
                resource: "cancelled",
                used: 0,
                limit: 0,
            },
            _ => BeasError::QuotaExceeded {
                resource: "tuples",
                used: self.tuples_used(),
                limit: self.max_tuples,
            },
        }
    }

    /// Charge `n` accessed tuples against the budget.  Crossing the tuple
    /// cap trips the tracker; with a deadline set, the clock is re-checked
    /// on the first charge and then once every few thousand charged tuples
    /// (`DEADLINE_CHECK_TUPLES`) so per-row charging stays cheap.  Work
    /// that touches no base data between charges (a large blocking sort)
    /// must call [`QuotaTracker::checkpoint`] periodically itself, as the
    /// engine's blocking loops do — deadline enforcement is cooperative,
    /// not preemptive.
    pub fn charge_tuples(&self, n: u64) -> Result<()> {
        if n == 0 {
            return self.fail_if_tripped();
        }
        let before = self.tuples.fetch_add(n, Ordering::Relaxed);
        let after = before.saturating_add(n);
        if after > self.max_tuples {
            return Err(self.trip(TRIP_TUPLES));
        }
        if self.deadline.is_some()
            && (before == 0 || before / DEADLINE_CHECK_TUPLES != after / DEADLINE_CHECK_TUPLES)
        {
            return self.checkpoint();
        }
        self.fail_if_tripped()
    }

    /// Cooperative cancellation point: fails if the quota has tripped (or
    /// was cancelled from another thread) or the wall-clock deadline has
    /// passed.  Called at fetch-step boundaries and in blocking loops.
    pub fn checkpoint(&self) -> Result<()> {
        self.fail_if_tripped()?;
        if let Some((start, budget)) = self.deadline {
            if start.elapsed() > budget {
                return Err(self.trip(TRIP_DEADLINE));
            }
        }
        Ok(())
    }

    /// Check the quota's answer-row cap against `rows` produced rows
    /// (called once at finalization; rows are not charged incrementally
    /// because LIMIT already bounds streaming answers).
    pub fn check_rows(&self, rows: u64) -> Result<()> {
        if rows > self.max_rows {
            // record the count before latching so later re-reports on any
            // thread carry the real diagnostic
            self.rows_seen.store(rows, Ordering::Release);
            return Err(self.trip(TRIP_ROWS));
        }
        Ok(())
    }

    fn fail_if_tripped(&self) -> Result<()> {
        if self.is_tripped() {
            return Err(self.trip_error());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_quota_never_trips() {
        let tracker = ResourceQuota::unlimited().tracker();
        tracker.charge_tuples(u64::MAX / 2).unwrap();
        tracker.checkpoint().unwrap();
        assert!(!tracker.is_tripped());
        assert!(ResourceQuota::default().is_unlimited());
    }

    #[test]
    fn tuple_cap_trips_and_latches() {
        let tracker = ResourceQuota::unlimited().with_max_tuples(10).tracker();
        tracker.charge_tuples(7).unwrap();
        assert_eq!(tracker.tuples_used(), 7);
        tracker.charge_tuples(3).unwrap(); // exactly at the cap is fine
        let err = tracker.charge_tuples(1).unwrap_err();
        assert_eq!(err.kind(), "quota_exceeded");
        assert!(err.to_string().contains("tuples"));
        // latched: even a zero-cost checkpoint now fails
        assert!(tracker.is_tripped());
        assert!(tracker.checkpoint().is_err());
        assert!(tracker.charge_tuples(0).is_err());
    }

    #[test]
    fn deadline_trips_at_a_checkpoint() {
        let tracker = ResourceQuota::unlimited()
            .with_deadline(Duration::ZERO)
            .tracker();
        std::thread::sleep(Duration::from_millis(2));
        let err = tracker.checkpoint().unwrap_err();
        assert_eq!(err.kind(), "quota_exceeded");
        assert!(err.to_string().contains("deadline"));
    }

    #[test]
    fn cancel_behaves_like_a_trip() {
        let tracker = ResourceQuota::unlimited().tracker();
        tracker.cancel();
        assert!(tracker.is_tripped());
        let err = tracker.charge_tuples(1).unwrap_err();
        assert!(err.to_string().contains("cancelled"), "{err}");
    }

    #[test]
    fn latched_trips_report_their_actual_cause_on_every_thread() {
        // a deadline trip must not masquerade as a tuples error in later
        // failures (e.g. the scan's next charge)
        let tracker = ResourceQuota::unlimited()
            .with_deadline(Duration::ZERO)
            .tracker();
        std::thread::sleep(Duration::from_millis(2));
        let first = tracker.checkpoint().unwrap_err();
        assert!(first.to_string().contains("deadline"), "{first}");
        let second = tracker.charge_tuples(5).unwrap_err();
        assert!(second.to_string().contains("deadline"), "{second}");
    }

    #[test]
    fn deadline_is_checked_on_the_first_charge() {
        // small scans (well under the 4096-tuple re-check window) must
        // still observe an already-expired deadline
        let tracker = ResourceQuota::unlimited()
            .with_deadline(Duration::ZERO)
            .tracker();
        std::thread::sleep(Duration::from_millis(2));
        assert!(tracker.charge_tuples(1).is_err());
    }

    #[test]
    fn row_cap_checked_at_finalization() {
        let tracker = ResourceQuota::unlimited().with_max_rows(5).tracker();
        tracker.check_rows(5).unwrap();
        assert!(tracker.check_rows(6).is_err());
        assert!(tracker.is_tripped());
        // a latched rows trip re-reports with the real numbers, not zeros
        let again = tracker.charge_tuples(1).unwrap_err();
        let text = again.to_string();
        assert!(
            text.contains("rows") && text.contains('6') && text.contains('5'),
            "{text}"
        );
    }

    #[test]
    fn trackers_share_across_threads() {
        let quota = ResourceQuota::unlimited().with_max_tuples(10_000);
        let tracker = quota.tracker();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        let _ = tracker.charge_tuples(100);
                    }
                });
            }
        });
        // 4 × 25 × 100 = 10000 charged; the cap is 10000 so nothing tripped
        assert_eq!(tracker.tuples_used(), 10_000);
        assert!(!tracker.is_tripped());
        assert!(tracker.charge_tuples(1).is_err());
    }
}
