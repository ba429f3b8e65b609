//! Service-level metrics: per-decision counters and latency quantiles.
//!
//! Every counter is an atomic, so N session threads record into one
//! [`ServiceMetrics`] without locks and the totals provably add up — no
//! lost updates, matching the plan cache's accounting discipline.
//!
//! Latency is tracked in a fixed array of power-of-two buckets
//! ([`LatencyHistogram`]): recording is one atomic increment, and p50/p99
//! are computed on demand by walking the counts.  Quantiles are therefore
//! upper bounds with at most 2x resolution error — the right trade-off for
//! a hot path that must never allocate or lock.

use beas_storage::CopyStats;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` nanoseconds, so 64 buckets cover every representable
/// duration.
const LATENCY_BUCKETS: usize = 64;

/// A lock-free histogram of durations in power-of-two nanosecond buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// A sample of exactly `2^k` nanoseconds lands in bucket `k + 1` (the
    /// bucket holding `[2^k, 2^(k+1))`), whose reported upper bound is
    /// `2^(k+1) - 1` nanoseconds; zero-duration samples land in bucket 1
    /// with bucket 0 permanently empty.  A boundary test pins this.
    fn bucket_of(d: Duration) -> usize {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        (64 - ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Upper bound of bucket `i` in nanoseconds (`2^i - 1`, saturating).
    fn bucket_upper_ns(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one sample.
    pub fn record(&self, d: Duration) {
        self.buckets[Self::bucket_of(d)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Upper bound of the slowest recorded sample (the highest non-empty
    /// bucket's upper bound), or [`Duration::ZERO`] when no samples have
    /// been recorded.
    pub fn max(&self) -> Duration {
        for i in (0..LATENCY_BUCKETS).rev() {
            if self.buckets[i].load(Ordering::Relaxed) > 0 {
                return Duration::from_nanos(Self::bucket_upper_ns(i).max(1));
            }
        }
        Duration::ZERO
    }

    /// The histogram as Prometheus-style `(upper_bound_ns,
    /// cumulative_count)` pairs up to the highest non-empty bucket; empty
    /// when no samples have been recorded.  This is the export shape
    /// [`beas_obs::MetricsRegistry`] histograms take.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let Some(last) = counts.iter().rposition(|&c| c > 0) else {
            return Vec::new();
        };
        let mut cumulative = 0u64;
        counts[..=last]
            .iter()
            .enumerate()
            .map(|(i, c)| {
                cumulative += c;
                (Self::bucket_upper_ns(i), cumulative)
            })
            .collect()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding that rank.
    ///
    /// **Zero samples:** returns [`Duration::ZERO`].  This is the one value
    /// `quantile` can never return once a sample exists (every bucket's
    /// upper bound is at least 1 ns), so `Duration::ZERO` unambiguously
    /// means "no data" rather than "very fast" — callers that need to
    /// distinguish anyway should check [`LatencyHistogram::count`] first.
    pub fn quantile(&self, q: f64) -> Duration {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(Self::bucket_upper_ns(i).max(1));
            }
        }
        Duration::ZERO
    }
}

/// Atomic service counters shared by every session.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    pub(crate) bounded: AtomicU64,
    pub(crate) baseline: AtomicU64,
    pub(crate) approximate: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) quota_trips: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) maintenance_batches: AtomicU64,
    /// Running total of [`MaintenanceOutcome::copied`] over those batches
    /// (batches are serialized, so the lock is never contended).
    ///
    /// [`MaintenanceOutcome::copied`]: beas_access::MaintenanceOutcome::copied
    copied: Mutex<CopyStats>,
    pub(crate) live_generations: Arc<AtomicU64>,
    pub(crate) latency: LatencyHistogram,
    /// Per-decision latency: how long submissions took *by how they were
    /// routed* — a rejected query should sit in the microseconds (admission
    /// only) while a baseline one pays a full scan.  Exported per label by
    /// [`crate::QueryService::metrics_registry`].
    pub(crate) latency_bounded: LatencyHistogram,
    pub(crate) latency_baseline: LatencyHistogram,
    pub(crate) latency_approximate: LatencyHistogram,
    pub(crate) latency_rejected: LatencyHistogram,
}

impl ServiceMetrics {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one published maintenance batch and what it copied.
    pub(crate) fn record_batch(&self, copied: CopyStats) {
        Self::bump(&self.maintenance_batches);
        *self.copied.lock().expect("copy totals lock") += copied;
    }

    /// What all maintenance batches so far copied.
    pub(crate) fn copied(&self) -> CopyStats {
        *self.copied.lock().expect("copy totals lock")
    }

    /// A point-in-time copy of every counter plus latency quantiles.
    pub fn snapshot(&self) -> ServiceMetricsSnapshot {
        ServiceMetricsSnapshot {
            decided_bounded: self.bounded.load(Ordering::Relaxed),
            decided_baseline: self.baseline.load(Ordering::Relaxed),
            decided_approximate: self.approximate.load(Ordering::Relaxed),
            admission_rejections: self.rejected.load(Ordering::Relaxed),
            quota_trips: self.quota_trips.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            maintenance_batches: self.maintenance_batches.load(Ordering::Relaxed),
            maintenance_copied: self.copied(),
            live_generations: self.live_generations.load(Ordering::Relaxed),
            latency_samples: self.latency.count(),
            p50: self.latency.quantile(0.50),
            p90: self.latency.quantile(0.90),
            p99: self.latency.quantile(0.99),
            max: self.latency.max(),
        }
    }
}

/// A copied-out view of [`ServiceMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceMetricsSnapshot {
    /// Queries admitted to fully bounded execution.
    pub decided_bounded: u64,
    /// Queries admitted to baseline (partially bounded / conventional)
    /// execution.
    pub decided_baseline: u64,
    /// Queries routed to resource-bounded approximation.
    pub decided_approximate: u64,
    /// Queries rejected at admission (budget provably insufficient).
    pub admission_rejections: u64,
    /// In-flight queries cancelled by a quota trip.
    pub quota_trips: u64,
    /// Submissions that failed with a non-quota error (parse, binding, ...).
    pub errors: u64,
    /// Maintenance batches applied (each published one new snapshot).
    pub maintenance_batches: u64,
    /// What those batches copied because the storage they wrote was shared
    /// with a published generation — proportional to the batches, not to
    /// the database.
    pub maintenance_copied: CopyStats,
    /// Snapshot generations currently pinned (the published snapshot plus
    /// any older ones still held by sessions or explicit pins); old
    /// generations leave the gauge — and free their private segments —
    /// when their last pin drops.
    pub live_generations: u64,
    /// Latency samples recorded (one per submission).
    pub latency_samples: u64,
    /// Median submission latency (bucket upper bound).
    pub p50: Duration,
    /// 90th-percentile submission latency (bucket upper bound).
    pub p90: Duration,
    /// 99th-percentile submission latency (bucket upper bound).
    pub p99: Duration,
    /// Upper bound of the slowest submission ([`Duration::ZERO`] when no
    /// samples have been recorded).
    pub max: Duration,
}

impl ServiceMetricsSnapshot {
    /// Total query submissions that reached a decision.
    pub fn decisions(&self) -> u64 {
        self.decided_bounded
            + self.decided_baseline
            + self.decided_approximate
            + self.admission_rejections
    }
}

impl fmt::Display for ServiceMetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "service: {} bounded, {} baseline, {} approximate, {} rejected; \
             {} quota trips, {} errors, {} maintenance batches \
             (copied {} rows, {} buckets, {} shard maps; opened {} segments, merged {}), \
             {} live generations; p50 {:?}, p90 {:?}, p99 {:?}, max {:?} over {} samples",
            self.decided_bounded,
            self.decided_baseline,
            self.decided_approximate,
            self.admission_rejections,
            self.quota_trips,
            self.errors,
            self.maintenance_batches,
            self.maintenance_copied.rows_copied,
            self.maintenance_copied.buckets_cloned,
            self.maintenance_copied.shards_cloned,
            self.maintenance_copied.segments_opened,
            self.maintenance_copied.segments_merged,
            self.live_generations,
            self.p50,
            self.p90,
            self.p99,
            self.max,
            self.latency_samples,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket ~16µs
        }
        h.record(Duration::from_millis(50)); // the tail sample
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!(
            p50 >= Duration::from_micros(8) && p50 <= Duration::from_micros(17),
            "{p50:?}"
        );
        let p99 = h.quantile(0.99);
        assert!(
            p99 <= Duration::from_micros(17),
            "99 of 100 are fast: {p99:?}"
        );
        let p100 = h.quantile(1.0);
        assert!(p100 >= Duration::from_millis(33), "{p100:?}");
    }

    #[test]
    fn bucket_boundaries_at_exact_powers_of_two() {
        // 2^k ns is the *first* sample of bucket k+1 — the half-open
        // [2^k, 2^(k+1)) bucket — so its reported upper bound (max, and
        // quantile(1.0)) is 2^(k+1) - 1 ns, never 2^k - 1.
        for k in [0u32, 1, 4, 10, 20, 30] {
            let h = LatencyHistogram::default();
            h.record(Duration::from_nanos(1u64 << k));
            assert_eq!(
                LatencyHistogram::bucket_of(Duration::from_nanos(1u64 << k)),
                k as usize + 1
            );
            let expected = Duration::from_nanos((1u64 << (k + 1)) - 1);
            assert_eq!(h.max(), expected, "2^{k} ns");
            assert_eq!(h.quantile(1.0), expected, "2^{k} ns");
            // One below the boundary stays in bucket k (for k >= 1).
            if k >= 1 {
                assert_eq!(
                    LatencyHistogram::bucket_of(Duration::from_nanos((1u64 << k) - 1)),
                    k as usize
                );
            }
        }
        // Zero-duration samples land in bucket 1; bucket 0 stays empty.
        assert_eq!(LatencyHistogram::bucket_of(Duration::ZERO), 1);
    }

    #[test]
    fn max_and_quantiles_on_the_empty_histogram() {
        let h = LatencyHistogram::default();
        // Zero samples: ZERO is the documented "no data" value for both —
        // unreachable once any sample exists (bucket bounds are >= 1 ns).
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.quantile(0.0), Duration::ZERO);
        assert_eq!(h.quantile(1.0), Duration::ZERO);
        assert!(h.cumulative_buckets().is_empty());
        h.record(Duration::from_nanos(1));
        assert!(h.max() > Duration::ZERO);
        assert!(h.quantile(0.0) > Duration::ZERO);
    }

    #[test]
    fn cumulative_buckets_accumulate_and_stop_at_the_last_sample() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(3)); // bucket 2 (upper bound 3)
        h.record(Duration::from_nanos(3));
        h.record(Duration::from_nanos(100)); // bucket 7 (upper bound 127)
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 8, "stops at the highest non-empty bucket");
        assert_eq!(buckets[2], (3, 2));
        assert_eq!(buckets[6], (63, 2), "counts are cumulative");
        assert_eq!(buckets[7], (127, 3));
        assert_eq!(buckets.last().unwrap().1, h.count());
    }

    #[test]
    fn snapshot_p90_sits_between_p50_and_p99() {
        let m = ServiceMetrics::default();
        for i in 0..100u64 {
            m.latency.record(Duration::from_micros(i + 1));
        }
        let snap = m.snapshot();
        assert!(snap.p50 <= snap.p90, "{snap}");
        assert!(snap.p90 <= snap.p99, "{snap}");
        assert!(snap.p99 <= snap.max, "{snap}");
        assert!(snap.to_string().contains("p90"));
    }

    #[test]
    fn extreme_durations_stay_in_range() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(u64::MAX / 2));
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.0) > Duration::ZERO);
    }

    #[test]
    fn snapshot_display_mentions_every_counter() {
        let m = ServiceMetrics::default();
        ServiceMetrics::bump(&m.bounded);
        ServiceMetrics::bump(&m.rejected);
        m.live_generations.fetch_add(2, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(3));
        let snap = m.snapshot();
        assert_eq!(snap.decisions(), 2);
        assert_eq!(snap.live_generations, 2);
        let text = snap.to_string();
        assert!(text.contains("1 bounded"));
        assert!(text.contains("1 rejected"));
        assert!(text.contains("2 live generations"));
        assert!(text.contains("p99"));
    }
}
