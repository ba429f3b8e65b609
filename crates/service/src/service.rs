//! The query service: shared snapshots, serialized writers, and sessions.

use crate::admission::{admit_prepared, Decision, RejectReason};
use crate::metrics::{ServiceMetrics, ServiceMetricsSnapshot};
use beas_access::MaintenanceOutcome;
use beas_common::{BeasError, QuotaTracker, ResourceQuota, Result, Row, Schema};
use beas_core::{BeasSystem, EvaluationMode};
use beas_engine::{PlanCacheOutcome, PlanCacheStats};
use beas_obs::{clock, MetricsRegistry, QueryTrace, SpanRecord, TraceLevel};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Systems whose last pin dropped, waiting for a writer to free them.
type Retired = Arc<Mutex<Vec<BeasSystem>>>;

/// A published snapshot, pinned for garbage-collection accounting.
///
/// Snapshots are structurally shared: a maintenance batch forks the
/// current system (cloning `Arc` handles to row segments and index
/// shards, not rows) and publishes the fork, so consecutive generations
/// share almost all of their storage.  What an *old* generation alone
/// still holds — the buckets and small tail segments the batch replaced,
/// itself proportional to the batch — is released when the last
/// `Arc<PinnedSnapshot>` of that generation drops.  The pin makes that
/// lifecycle observable — it holds the
/// [`ServiceMetricsSnapshot::live_generations`] gauge up while alive and
/// decrements it on drop — and keeps its cost off the read path: the last
/// holder, usually a session finishing a query, does not free the system
/// but hands it to the service, and the next maintenance batch frees it on
/// the writer's thread.  (Those thousands of small allocations were made
/// on that thread; freeing them from a reader's, while the writer keeps
/// allocating, stalled the reader for most of its run.)
///
/// Dereferences to [`BeasSystem`]; queries made directly against it bypass
/// the service's admission control and metrics.
#[derive(Debug)]
pub struct PinnedSnapshot {
    /// `Some` until drop.
    system: Option<BeasSystem>,
    gauge: Arc<AtomicU64>,
    retired: Retired,
}

impl PinnedSnapshot {
    fn publish(
        system: BeasSystem,
        gauge: &Arc<AtomicU64>,
        retired: &Retired,
    ) -> Arc<PinnedSnapshot> {
        gauge.fetch_add(1, Ordering::Relaxed);
        Arc::new(PinnedSnapshot {
            system: Some(system),
            gauge: Arc::clone(gauge),
            retired: Arc::clone(retired),
        })
    }
}

impl Deref for PinnedSnapshot {
    type Target = BeasSystem;

    fn deref(&self) -> &BeasSystem {
        self.system.as_ref().expect("present until drop")
    }
}

impl Drop for PinnedSnapshot {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::Relaxed);
        // A poisoned list means a writer panicked while freeing; fall back
        // to freeing here rather than panic in drop.
        if let (Some(system), Ok(mut retired)) = (self.system.take(), self.retired.lock()) {
            retired.push(system);
        }
    }
}

/// Ring-buffer capacity of the slow-query log.
pub const SLOW_QUERY_LOG_CAP: usize = 128;

/// Default slow-query threshold: tuned for an in-memory engine where a
/// normal submission is micro- to low-milliseconds.
pub const DEFAULT_SLOW_QUERY_THRESHOLD: Duration = Duration::from_millis(100);

/// One entry of the slow-query log.
#[derive(Debug, Clone)]
pub struct SlowQueryRecord {
    /// Trace id of the submission (0 when it failed before tracing).
    pub trace_id: u64,
    /// Session that submitted the query.
    pub session: u64,
    /// The SQL text as submitted.
    pub sql: String,
    /// How the submission ended: the decision name, or `error: <kind>`.
    pub outcome: String,
    /// How the plan cache answered (`None` when the submission failed).
    pub cache: Option<PlanCacheOutcome>,
    /// End-to-end submission latency.
    pub elapsed: Duration,
    /// Snapshot generation the query ran against (0 on pre-pin failures).
    pub generation: u64,
}

/// Lock-free-threshold ring buffer of the slowest submissions.  The mutex
/// is taken only for queries that already blew the threshold, so the fast
/// path costs one atomic load.
#[derive(Debug)]
struct SlowQueryLog {
    threshold_ns: AtomicU64,
    entries: Mutex<VecDeque<SlowQueryRecord>>,
}

impl Default for SlowQueryLog {
    fn default() -> Self {
        SlowQueryLog {
            threshold_ns: AtomicU64::new(beas_obs::registry::duration_ns(
                DEFAULT_SLOW_QUERY_THRESHOLD,
            )),
            entries: Mutex::new(VecDeque::new()),
        }
    }
}

impl SlowQueryLog {
    fn observe(&self, record: SlowQueryRecord) {
        let threshold = self.threshold_ns.load(Ordering::Relaxed);
        if beas_obs::registry::duration_ns(record.elapsed) < threshold {
            return;
        }
        let mut entries = self.entries.lock().expect("slow query log lock");
        if entries.len() >= SLOW_QUERY_LOG_CAP {
            entries.pop_front();
        }
        entries.push_back(record);
    }
}

/// State shared by the service handle and every session.
#[derive(Debug)]
struct Shared {
    /// The current read snapshot.  Readers hold the lock only long enough
    /// to clone the `Arc`; queries then run entirely against their pinned
    /// snapshot, so a concurrent writer never stalls a reader and a reader
    /// never observes a half-applied batch.
    snapshot: RwLock<Arc<PinnedSnapshot>>,
    /// Serializes maintenance batches end to end (fork → apply → publish).
    /// Distinct from the snapshot lock: the expensive fork-and-apply happens
    /// under this mutex only, and the snapshot write lock is held just for
    /// the pointer swap.
    writer: Mutex<()>,
    /// Unpinned generations, freed by the next maintenance batch.
    retired: Retired,
    metrics: ServiceMetrics,
    slow_log: SlowQueryLog,
    next_session: AtomicU64,
}

/// A concurrent multi-session query service over one [`BeasSystem`].
///
/// * **Sessions** ([`QueryService::session`]) submit SQL from any thread;
///   each carries a [`ResourceQuota`] enforced by admission control up
///   front and by cooperative cancellation in flight.
/// * **Reads are snapshot-consistent**: a query runs against the
///   `Arc`-pinned system snapshot current at submission, keyed by the
///   database write generation ([`SessionOutcome::generation`]).
/// * **Writes serialize**: maintenance batches fork the current snapshot
///   (an O(handles) structural clone — row segments and index shards are
///   shared copy-on-write), apply atomically, and publish a new snapshot;
///   a failed batch publishes nothing.  Old snapshots are freed by `Arc`
///   drop when their last session unpins them (the `live_generations`
///   metric counts the pinned ones).
/// * The **plan cache is shared across snapshots** (forks keep one cache;
///   entries are validated against the access epoch they were prepared
///   under), so a maintenance write re-prepares no plan at all unless it
///   changes a bound.
///
/// Cloning the handle is cheap and shares the service.
#[derive(Debug, Clone)]
pub struct QueryService {
    shared: Arc<Shared>,
}

/// One client session: a handle plus its resource quota.  Sessions are
/// `Send`, so each client thread owns its own.
#[derive(Debug)]
pub struct Session {
    shared: Arc<Shared>,
    id: u64,
    quota: ResourceQuota,
    allow_approximate: bool,
}

/// The answer of an admitted, successfully executed submission.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Answer rows.
    pub rows: Vec<Row>,
    /// Output schema.
    pub schema: Schema,
    /// How the query was evaluated (approximate runs report `Bounded`:
    /// they execute the bounded plan under a hard fetch budget).
    pub mode: EvaluationMode,
    /// Tuples accessed (charged against the session quota).
    pub tuples_accessed: u64,
    /// Deterministic lower bound on answer completeness: `1.0` for exact
    /// evaluation, the approximation's coverage otherwise.
    pub coverage: f64,
}

/// The trace of one submission: the trace id stamped through admission →
/// plan cache → execution, the admission inputs (deduced bound or estimate
/// vs the session budget), the plan-cache outcome, the snapshot generation,
/// the quota spend, and — under [`TraceLevel::Timing`] — per-stage spans.
///
/// Plain owned data (no atomics, no `Arc`s into the engine), so outcomes
/// stay `Clone` and the trace can outlive the snapshot it describes.
#[derive(Debug, Clone)]
pub struct SubmissionTrace {
    /// Globally unique id of this submission (from
    /// [`beas_obs::next_trace_id`] via the session's [`QueryTrace`]).
    pub trace_id: u64,
    /// The global trace level the submission ran under.
    pub level: TraceLevel,
    /// Whether the prepared plan came from the shared plan cache, by text
    /// or by shape.
    pub cache_hit: bool,
    /// How the plan cache answered: the text was cached, its query shape
    /// was, or neither.
    pub cache: PlanCacheOutcome,
    /// Write generation of the snapshot the query ran against.
    pub generation: u64,
    /// The deduced bound when the query is covered (what admission compared
    /// against the budget).
    pub deduced_bound: Option<u64>,
    /// The planner estimate when the query is *not* covered.
    pub estimated_tuples: Option<u64>,
    /// The session's tuple budget, if it has one.
    pub budget: Option<u64>,
    /// Tuples actually charged against the session quota (0 for rejected
    /// submissions).
    pub tuples_used: u64,
    /// End-to-end time of the submission as seen by the session
    /// ([`Duration::ZERO`] under [`TraceLevel::Off`]).
    pub elapsed: Duration,
    /// Per-stage spans (`prepare`, `admit`, `execute`); durations are
    /// non-zero only under [`TraceLevel::Timing`], and the whole list is
    /// empty under [`TraceLevel::Off`].
    pub spans: Vec<SpanRecord>,
}

impl SubmissionTrace {
    /// Render the trace as one compact line plus per-span lines.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace #{} (level={}): cache {}, generation {}, {} vs budget {}, {} tuples used, {:?}\n",
            self.trace_id,
            self.level,
            self.cache,
            self.generation,
            match (self.deduced_bound, self.estimated_tuples) {
                (Some(b), _) => format!("deduced bound {b}"),
                (None, Some(e)) => format!("estimated {e}"),
                (None, None) => "no bound".to_string(),
            },
            self.budget
                .map(|b| b.to_string())
                .unwrap_or_else(|| "unlimited".to_string()),
            self.tuples_used,
            self.elapsed,
        );
        for span in &self.spans {
            out.push_str(&format!("  {}: {:?}\n", span.name, span.elapsed));
        }
        out
    }
}

impl fmt::Display for SubmissionTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The outcome of one submission: the admission decision, the snapshot
/// generation it was served at, and — when admitted — the answer.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The structured admission decision.
    pub decision: Decision,
    /// Write generation of the snapshot the query ran against (compare with
    /// a serial replay at the same generation to check consistency).
    pub generation: u64,
    /// The answer, or `None` when the decision was [`Decision::Rejected`].
    pub answer: Option<Answer>,
    /// The submission's trace: admission inputs, cache outcome, quota
    /// spend, and (under [`TraceLevel::Timing`]) per-stage spans.
    pub trace: SubmissionTrace,
}

impl QueryService {
    /// Wrap a configured system (knobs like
    /// [`BeasSystem::with_exec_fallback`] are applied before construction)
    /// into a service.
    pub fn new(system: BeasSystem) -> Self {
        let metrics = ServiceMetrics::default();
        let retired = Retired::default();
        let snapshot = PinnedSnapshot::publish(system, &metrics.live_generations, &retired);
        QueryService {
            shared: Arc::new(Shared {
                snapshot: RwLock::new(snapshot),
                writer: Mutex::new(()),
                retired,
                metrics,
                slow_log: SlowQueryLog::default(),
                next_session: AtomicU64::new(0),
            }),
        }
    }

    /// Open a session with `quota`.  Approximation fallback is off by
    /// default; see [`Session::with_approximation`].
    pub fn session(&self, quota: ResourceQuota) -> Session {
        Session {
            shared: Arc::clone(&self.shared),
            id: self.shared.next_session.fetch_add(1, Ordering::Relaxed),
            quota,
            allow_approximate: false,
        }
    }

    /// The current read snapshot, pinned: the snapshot's generation counts
    /// as live (see [`ServiceMetricsSnapshot::live_generations`]) until the
    /// returned handle — and every clone of it — is dropped, at which point
    /// the generation's privately owned storage is reclaimed.
    pub fn snapshot(&self) -> Arc<PinnedSnapshot> {
        Arc::clone(&self.shared.snapshot.read().expect("snapshot lock"))
    }

    /// Write generation of the current snapshot.
    pub fn generation(&self) -> u64 {
        self.snapshot().database().generation()
    }

    /// Service-level metrics (decision counters, quota trips, latency).
    pub fn metrics(&self) -> ServiceMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Plan-cache counters, aggregated across every snapshot of this
    /// service's lineage (the cache is shared by construction).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.snapshot().plan_cache_stats()
    }

    /// Set the slow-query threshold: submissions at or above it are
    /// recorded in the ring-buffer slow-query log (default
    /// [`DEFAULT_SLOW_QUERY_THRESHOLD`]; `Duration::ZERO` logs every
    /// submission, `Duration::MAX` effectively disables the log).
    pub fn set_slow_query_threshold(&self, threshold: Duration) {
        self.shared.slow_log.threshold_ns.store(
            beas_obs::registry::duration_ns(threshold),
            Ordering::Relaxed,
        );
    }

    /// The current slow-query threshold.
    pub fn slow_query_threshold(&self) -> Duration {
        Duration::from_nanos(self.shared.slow_log.threshold_ns.load(Ordering::Relaxed))
    }

    /// The slow-query log, oldest first.  A bounded ring buffer (the
    /// [`SLOW_QUERY_LOG_CAP`] most recent slow submissions are kept).
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.shared
            .slow_log
            .entries
            .lock()
            .expect("slow query log lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Export the service's observable state as a [`MetricsRegistry`]
    /// snapshot: per-decision counters, quota trips, errors, maintenance
    /// batches and what they copied, the live-generation gauge, plan-cache
    /// counters, and the
    /// submission latency histograms (overall and per decision).  Render it
    /// with [`MetricsRegistry::to_json`] or
    /// [`MetricsRegistry::to_prometheus`].
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let m = &self.shared.metrics;
        let cache = self.plan_cache_stats();
        let mut registry = MetricsRegistry::new();
        const DECISIONS_HELP: &str = "Admission decisions by routing";
        registry
            .counter_with(
                "beas_service_decisions_total",
                DECISIONS_HELP,
                &[("decision", "bounded")],
                m.bounded.load(Ordering::Relaxed),
            )
            .counter_with(
                "beas_service_decisions_total",
                DECISIONS_HELP,
                &[("decision", "baseline")],
                m.baseline.load(Ordering::Relaxed),
            )
            .counter_with(
                "beas_service_decisions_total",
                DECISIONS_HELP,
                &[("decision", "approximate")],
                m.approximate.load(Ordering::Relaxed),
            )
            .counter_with(
                "beas_service_decisions_total",
                DECISIONS_HELP,
                &[("decision", "rejected")],
                m.rejected.load(Ordering::Relaxed),
            )
            .counter(
                "beas_service_quota_trips_total",
                "In-flight queries cancelled by a quota trip",
                m.quota_trips.load(Ordering::Relaxed),
            )
            .counter(
                "beas_service_errors_total",
                "Submissions failed with a non-quota error",
                m.errors.load(Ordering::Relaxed),
            )
            .counter(
                "beas_service_maintenance_batches_total",
                "Maintenance batches applied (each published one snapshot)",
                m.maintenance_batches.load(Ordering::Relaxed),
            );
        const COPIED_HELP: &str =
            "What maintenance batches copied because the storage they wrote was shared";
        let copied = m.copied();
        for (what, total) in [
            ("segments_opened", copied.segments_opened),
            ("segments_merged", copied.segments_merged),
            ("rows_copied", copied.rows_copied),
            ("shards_cloned", copied.shards_cloned),
            ("buckets_cloned", copied.buckets_cloned),
        ] {
            registry.counter_with(
                "beas_service_maintenance_copied_total",
                COPIED_HELP,
                &[("what", what)],
                total,
            );
        }
        registry.gauge(
            "beas_service_live_generations",
            "Snapshot generations currently pinned",
            m.live_generations.load(Ordering::Relaxed),
        );
        const CACHE_HELP: &str = "Plan cache lookups by outcome; shape_hit is the part of hit \
            answered by shape, invalidation the lookups that dropped a stale entry";
        registry
            .counter_with(
                "beas_plan_cache_lookups_total",
                CACHE_HELP,
                &[("outcome", "hit")],
                cache.hits,
            )
            .counter_with(
                "beas_plan_cache_lookups_total",
                CACHE_HELP,
                &[("outcome", "shape_hit")],
                cache.shape_hits,
            )
            .counter_with(
                "beas_plan_cache_lookups_total",
                CACHE_HELP,
                &[("outcome", "miss")],
                cache.misses,
            )
            .counter_with(
                "beas_plan_cache_lookups_total",
                CACHE_HELP,
                &[("outcome", "invalidation")],
                cache.invalidations,
            )
            .histogram_with(
                "beas_submission_latency_ns",
                "End-to-end submission latency",
                &[],
                m.latency.cumulative_buckets(),
                m.latency.count(),
            );
        const BY_DECISION_HELP: &str = "Submission latency by admission decision";
        for (decision, histogram) in [
            ("bounded", &m.latency_bounded),
            ("baseline", &m.latency_baseline),
            ("approximate", &m.latency_approximate),
            ("rejected", &m.latency_rejected),
        ] {
            registry.histogram_with(
                "beas_submission_latency_by_decision_ns",
                BY_DECISION_HELP,
                &[("decision", decision)],
                histogram.cumulative_buckets(),
                histogram.count(),
            );
        }
        registry
    }

    /// Apply one maintenance batch atomically: fork the current snapshot,
    /// run `apply` on the fork, and publish it as the new snapshot.  An
    /// error publishes nothing — concurrent readers keep their pinned
    /// snapshots either way and in-flight queries are never disturbed.
    fn maintain(
        &self,
        apply: impl FnOnce(&mut BeasSystem) -> Result<MaintenanceOutcome>,
    ) -> Result<MaintenanceOutcome> {
        let (outcome, unpinned) = {
            let _writer = self.shared.writer.lock().expect("writer lock");
            let current = Arc::clone(&self.shared.snapshot.read().expect("snapshot lock"));
            let mut fork = current.fork();
            let outcome = apply(&mut fork)?;
            let published = PinnedSnapshot::publish(
                fork,
                &self.shared.metrics.live_generations,
                &self.shared.retired,
            );
            let mut slot = self.shared.snapshot.write().expect("snapshot lock");
            (outcome, (std::mem::replace(&mut *slot, published), current))
        };
        // The service's pins on the previous generation drop only here,
        // with the snapshot lock and the writer mutex released, so neither a
        // reader waiting to pin nor the next writer waits for it.  Then this
        // thread frees every generation whose last pin has dropped by now.
        drop(unpinned);
        let retired = std::mem::take(&mut *self.shared.retired.lock().expect("retired list lock"));
        drop(retired);
        self.shared.metrics.record_batch(outcome.copied);
        Ok(outcome)
    }

    /// Insert rows through the maintenance module (indices stay consistent,
    /// the write generation advances) and publish the result as a new
    /// snapshot.  Serializes with other writers; readers are unaffected
    /// until the publish.
    pub fn insert_rows(&self, table: &str, rows: Vec<Row>) -> Result<MaintenanceOutcome> {
        self.maintain(|system| system.insert_rows(table, rows))
    }

    /// Delete matching rows through the maintenance module and publish a
    /// new snapshot.
    pub fn delete_rows(
        &self,
        table: &str,
        predicate: impl FnMut(&Row) -> bool,
    ) -> Result<MaintenanceOutcome> {
        self.maintain(|system| system.delete_rows(table, predicate))
    }
}

impl Session {
    /// This session's id (unique within the service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session's quota.
    pub fn quota(&self) -> ResourceQuota {
        self.quota
    }

    /// Allow covered queries whose deduced bound exceeds the tuple budget
    /// to run as resource-bounded *approximations* under that budget,
    /// instead of being rejected.
    pub fn with_approximation(mut self) -> Self {
        self.allow_approximate = true;
        self
    }

    /// Admission control only: route `sql` against this session's quota on
    /// the current snapshot, without executing anything.  Deterministic for
    /// a given snapshot and quota.
    pub fn admit(&self, sql: &str) -> Result<Decision> {
        let snapshot = self.pin();
        let prepared = snapshot.prepare(sql)?;
        admit_prepared(&snapshot, &prepared, &self.quota, self.allow_approximate)
    }

    /// Submit `sql`: admission control, then execution under the quota
    /// against a pinned snapshot.  Rejections are `Ok` outcomes carrying
    /// [`Decision::Rejected`] (and no answer); errors are reserved for
    /// malformed queries and for in-flight quota trips
    /// ([`BeasError::QuotaExceeded`]).
    pub fn execute(&self, sql: &str) -> Result<SessionOutcome> {
        let start = clock::now();
        let out = self.execute_pinned(sql);
        let elapsed = start.elapsed();
        let metrics = &self.shared.metrics;
        metrics.latency.record(elapsed);
        let outcome_label = match &out {
            Ok(outcome) => {
                // Per-decision latency: a rejection should cost admission
                // only, a baseline run pays the full scan — the split makes
                // that visible where one blended histogram would hide it.
                let (histogram, label) = match outcome.decision {
                    Decision::Bounded { .. } => (&metrics.latency_bounded, "bounded"),
                    Decision::Baseline { .. } => (&metrics.latency_baseline, "baseline"),
                    Decision::Approximate { .. } => (&metrics.latency_approximate, "approximate"),
                    Decision::Rejected { .. } => (&metrics.latency_rejected, "rejected"),
                };
                histogram.record(elapsed);
                label.to_string()
            }
            Err(err @ BeasError::QuotaExceeded { .. }) => {
                ServiceMetrics::bump(&metrics.quota_trips);
                format!("error: {}", err.kind())
            }
            Err(err) => {
                ServiceMetrics::bump(&metrics.errors);
                format!("error: {}", err.kind())
            }
        };
        self.shared.slow_log.observe(SlowQueryRecord {
            trace_id: out.as_ref().map(|o| o.trace.trace_id).unwrap_or(0),
            session: self.id,
            sql: sql.to_string(),
            outcome: outcome_label,
            cache: out.as_ref().ok().map(|o| o.trace.cache),
            elapsed,
            generation: out.as_ref().map(|o| o.generation).unwrap_or(0),
        });
        out
    }

    fn pin(&self) -> Arc<PinnedSnapshot> {
        Arc::clone(&self.shared.snapshot.read().expect("snapshot lock"))
    }

    fn execute_pinned(&self, sql: &str) -> Result<SessionOutcome> {
        let level = beas_obs::trace_level();
        let mut query_trace = QueryTrace::new(level);
        let started = clock::now();
        let snapshot = self.pin();
        let generation = snapshot.database().generation();
        // One plan-cache acquisition per submission: the prepared query is
        // threaded from the admission decision into execution, and the
        // hit/miss outcome is stamped into the trace from the same lookup.
        let span = query_trace.start_span();
        let (prepared, cache) = snapshot.prepare_outcome(sql)?;
        query_trace.end_span("prepare", span);
        let span = query_trace.start_span();
        let decision = admit_prepared(&snapshot, &prepared, &self.quota, self.allow_approximate)?;
        query_trace.end_span("admit", span);
        let metrics = &self.shared.metrics;
        // Decision counters record the routing, so they bump where the
        // decision is made — an admitted query that later trips its quota
        // still counted as admitted (the trip shows up in quota_trips).
        ServiceMetrics::bump(match decision {
            Decision::Bounded { .. } => &metrics.bounded,
            Decision::Baseline { .. } => &metrics.baseline,
            Decision::Approximate { .. } => &metrics.approximate,
            Decision::Rejected { .. } => &metrics.rejected,
        });
        let span = query_trace.start_span();
        let mut tuples_used = 0;
        let answer = match decision {
            Decision::Rejected { .. } => None,
            Decision::Bounded { .. } | Decision::Baseline { .. } => {
                let tracker: QuotaTracker = self.quota.tracker();
                let outcome = snapshot.execute_prepared(&prepared, Some(&tracker))?;
                tracker.check_rows(outcome.rows.len() as u64)?;
                tuples_used = tracker.tuples_used();
                Some(Answer {
                    rows: outcome.rows,
                    schema: outcome.schema,
                    mode: outcome.mode,
                    tuples_accessed: outcome.tuples_accessed,
                    coverage: 1.0,
                })
            }
            Decision::Approximate { budget } => {
                // The approximation's own budget cap enforces the tuple
                // quota (it never fetches past `budget`); the row cap and
                // the deadline still need the tracker — checked after the
                // run, since the approximator has no cooperative hooks yet.
                let tracker: QuotaTracker = self.quota.tracker();
                let approx = snapshot.approximate_prepared(&prepared, budget)?;
                tracker.check_rows(approx.rows.len() as u64)?;
                tracker.checkpoint()?;
                tuples_used = approx.tuples_accessed;
                Some(Answer {
                    rows: approx.rows,
                    schema: approx.schema,
                    mode: EvaluationMode::Bounded,
                    tuples_accessed: approx.tuples_accessed,
                    coverage: approx.coverage,
                })
            }
        };
        query_trace.end_span("execute", span);
        let trace = SubmissionTrace {
            trace_id: query_trace.trace_id(),
            level,
            cache_hit: cache.is_hit(),
            cache,
            generation,
            deduced_bound: prepared.deduced_bound(),
            estimated_tuples: match decision {
                Decision::Baseline { estimated_tuples } => Some(estimated_tuples),
                Decision::Rejected {
                    reason:
                        RejectReason::EstimateExceedsQuota {
                            estimated_tuples, ..
                        },
                } => Some(estimated_tuples),
                _ => None,
            },
            budget: self.quota.max_tuples,
            tuples_used,
            elapsed: if level.counters() {
                started.elapsed()
            } else {
                Duration::ZERO
            },
            spans: query_trace.spans().to_vec(),
        };
        Ok(SessionOutcome {
            decision,
            generation,
            answer,
            trace,
        })
    }
}

// The whole point of the service: handles and sessions cross threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryService>();
    assert_send_sync::<Session>();
    assert_send_sync::<BeasSystem>();
    assert_send_sync::<PinnedSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use beas_access::{AccessConstraint, AccessSchema};
    use beas_common::{ColumnDef, DataType, TableSchema, Value};
    use beas_storage::Database;

    /// The same small instance the core system tests use: 50 calls, 10
    /// businesses, constraints on both tables.
    fn service() -> QueryService {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
                    ColumnDef::new("region", DataType::Str),
                    ColumnDef::new("duration", DataType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "business",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("type", DataType::Str),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        for i in 0..50 {
            db.insert(
                "call",
                vec![
                    Value::str(format!("p{}", i % 10)),
                    Value::str(format!("r{i}")),
                    Value::str("2016-07-04"),
                    Value::str(if i % 2 == 0 { "east" } else { "west" }),
                    Value::Int(i),
                ],
            )
            .unwrap();
        }
        for i in 0..10 {
            db.insert(
                "business",
                vec![
                    Value::str(format!("p{i}")),
                    Value::str(if i % 2 == 0 { "bank" } else { "shop" }),
                    Value::str("r0"),
                ],
            )
            .unwrap();
        }
        let schema = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum", "region"], 500).unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
        ]);
        QueryService::new(BeasSystem::with_schema(db, schema).unwrap())
    }

    const COVERED: &str = "select distinct call.region from call, business \
        where business.type = 'bank' and business.region = 'r0' \
        and business.pnum = call.pnum and call.date = '2016-07-04'";

    const UNCOVERED: &str = "select call.region, sum(call.duration) as total from call, business \
        where business.type = 'bank' and business.region = 'r0' \
        and business.pnum = call.pnum and call.date = '2016-07-04' \
        group by call.region order by call.region";

    #[test]
    fn bounded_query_admitted_and_answered() {
        let service = service();
        let session = service.session(ResourceQuota::unlimited().with_max_tuples(50_000_000));
        let out = session.execute(COVERED).unwrap();
        assert!(matches!(out.decision, Decision::Bounded { .. }));
        let answer = out.answer.unwrap();
        assert_eq!(answer.rows, vec![vec![Value::str("east")]]);
        assert_eq!(answer.coverage, 1.0);
        assert_eq!(answer.mode, EvaluationMode::Bounded);
        assert_eq!(out.generation, service.generation());
        let m = service.metrics();
        assert_eq!(m.decided_bounded, 1);
        assert_eq!(m.decisions(), 1);
        assert_eq!(m.latency_samples, 1);
    }

    #[test]
    fn covered_query_over_budget_is_rejected_or_approximated() {
        let service = service();
        // the deduced bound for COVERED is >= 2000, so a 100-tuple budget
        // is provably insufficient
        let strict = service.session(ResourceQuota::unlimited().with_max_tuples(100));
        let decision = strict.admit(COVERED).unwrap();
        assert!(matches!(decision, Decision::Rejected { .. }), "{decision}");
        // deterministic: executing returns the same structured decision
        let out = strict.execute(COVERED).unwrap();
        assert_eq!(out.decision, decision);
        assert!(out.answer.is_none());
        // an approximation-enabled session runs under the budget instead
        let approx = service
            .session(ResourceQuota::unlimited().with_max_tuples(12))
            .with_approximation();
        let out = approx.execute(COVERED).unwrap();
        assert_eq!(out.decision, Decision::Approximate { budget: 12 });
        let answer = out.answer.unwrap();
        assert!(answer.tuples_accessed <= 12);
        assert!(answer.coverage > 0.0 && answer.coverage < 1.0);
        let m = service.metrics();
        assert_eq!(m.admission_rejections, 1);
        assert_eq!(m.decided_approximate, 1);
    }

    #[test]
    fn uncovered_query_routes_by_estimate_and_trips_by_quota() {
        let service = service();
        // 60 base rows in the two tables: a 10-tuple budget rejects up front
        let strict = service.session(ResourceQuota::unlimited().with_max_tuples(10));
        let out = strict.execute(UNCOVERED).unwrap();
        match out.decision {
            Decision::Rejected {
                reason:
                    crate::admission::RejectReason::EstimateExceedsQuota {
                        estimated_tuples,
                        max_tuples,
                    },
            } => {
                assert_eq!(estimated_tuples, 60);
                assert_eq!(max_tuples, 10);
            }
            other => panic!("expected an estimate rejection, got {other}"),
        }
        // a budget above the estimate admits to baseline and completes
        let relaxed = service.session(ResourceQuota::unlimited().with_max_tuples(10_000));
        let out = relaxed.execute(UNCOVERED).unwrap();
        assert!(matches!(out.decision, Decision::Baseline { .. }));
        assert!(out.answer.unwrap().coverage == 1.0);
        // a budget between the estimate's floor and the actual access
        // admits, then trips in flight: `recnum` is unique, so the join
        // estimate is 50·50/50 = 50 and the scan floor counts the distinct
        // table once (50 rows) — but this self-join scans `call` twice —
        // the runtime quota backstops the optimistic estimate
        let self_join = "select c1.recnum from call c1, call c2 \
                         where c1.recnum = c2.recnum and c1.duration > c2.duration";
        let borderline = service.session(ResourceQuota::unlimited().with_max_tuples(62));
        assert!(borderline.admit(self_join).unwrap().admitted());
        let err = borderline.execute(self_join).expect_err("must trip");
        assert_eq!(err.kind(), "quota_exceeded");
        assert_eq!(service.metrics().quota_trips, 1);
        assert_eq!(service.metrics().admission_rejections, 1);
    }

    #[test]
    fn approximate_answers_respect_the_row_cap() {
        let service = service();
        let session = service
            .session(
                ResourceQuota::unlimited()
                    .with_max_tuples(12)
                    .with_max_rows(0),
            )
            .with_approximation();
        // the approximation produces at least one sound answer row, which
        // the 0-row cap must reject like any other over-quota answer
        let err = session.execute(COVERED).expect_err("0-row cap");
        assert_eq!(err.kind(), "quota_exceeded");
        assert!(err.to_string().contains("rows"), "{err}");
        assert_eq!(service.metrics().quota_trips, 1);
    }

    #[test]
    fn max_rows_quota_rejects_oversized_answers() {
        let service = service();
        let session = service.session(ResourceQuota::unlimited().with_max_rows(3));
        // 5 distinct pnum groups > 3 rows allowed
        let err = session
            .execute("select distinct pnum from business where type = 'bank' and region = 'r0'")
            .expect_err("5 banks exceed the 3-row cap");
        assert_eq!(err.kind(), "quota_exceeded");
        assert!(err.to_string().contains("rows"));
    }

    #[test]
    fn writes_publish_new_snapshots_and_reads_stay_consistent() {
        let service = service();
        let session = service.session(ResourceQuota::unlimited());
        let before_gen = service.generation();
        let before = session.execute(COVERED).unwrap();
        assert_eq!(before.generation, before_gen);
        // a maintenance batch: new bank + a call from it in a new region
        service
            .insert_rows(
                "business",
                vec![vec![
                    Value::str("p77"),
                    Value::str("bank"),
                    Value::str("r0"),
                ]],
            )
            .unwrap();
        service
            .insert_rows(
                "call",
                vec![vec![
                    Value::str("p77"),
                    Value::str("r999"),
                    Value::str("2016-07-04"),
                    Value::str("north"),
                    Value::Int(1),
                ]],
            )
            .unwrap();
        assert!(service.generation() > before_gen);
        let after = session.execute(COVERED).unwrap();
        assert_eq!(after.generation, service.generation());
        let mut regions: Vec<String> = after
            .answer
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        regions.sort();
        assert_eq!(regions, vec!["east".to_string(), "north".to_string()]);
        assert_eq!(service.metrics().maintenance_batches, 2);
    }

    #[test]
    fn failed_maintenance_publishes_nothing() {
        let service = service();
        let generation = service.generation();
        assert!(service
            .insert_rows("nosuch", vec![vec![Value::Int(1)]])
            .is_err());
        assert_eq!(service.generation(), generation, "no snapshot published");
        assert_eq!(service.metrics().maintenance_batches, 0);
    }

    #[test]
    fn malformed_sql_counts_as_an_error() {
        let service = service();
        let session = service.session(ResourceQuota::unlimited());
        assert!(session.execute("not sql").is_err());
        assert_eq!(service.metrics().errors, 1);
        assert_eq!(service.metrics().decisions(), 0);
    }

    #[test]
    fn sessions_share_the_plan_cache_across_snapshots() {
        let service = service();
        let a = service.session(ResourceQuota::unlimited());
        let b = service.session(ResourceQuota::unlimited());
        assert_ne!(a.id(), b.id());
        a.execute(COVERED).unwrap();
        b.execute(COVERED).unwrap();
        let stats = service.plan_cache_stats();
        // one acquisition per submission (admission and execution share
        // the same prepared Arc): the second session hits the entry the
        // first one planned, exactly once
        assert_eq!((stats.misses, stats.hits), (1, 1), "{stats}");
        // a write to `call` invalidates nothing: the next read is a hit on
        // the same plan, run against the new snapshot's rows
        service
            .delete_rows("call", |r| r[3] == Value::str("east"))
            .unwrap();
        let out = a.execute(COVERED).unwrap();
        assert!(out.trace.cache_hit);
        assert_eq!(out.generation, service.generation());
        assert!(out.answer.unwrap().rows.is_empty(), "the banks' calls went");
        let stats = service.plan_cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.invalidations), (1, 2, 0));
    }

    #[test]
    fn old_generations_are_freed_when_their_last_pin_drops() {
        let service = service();
        assert_eq!(service.metrics().live_generations, 1);
        // pin the pre-write generation like a long-running session would
        let pinned = service.snapshot();
        let weak = Arc::downgrade(&pinned);
        let rows_before = pinned.database().table("call").unwrap().row_count();
        service
            .insert_rows(
                "call",
                vec![vec![
                    Value::str("p0"),
                    Value::str("rGC"),
                    Value::str("2016-07-04"),
                    Value::str("east"),
                    Value::Int(1),
                ]],
            )
            .unwrap();
        // two generations live: the published one and the pinned old one,
        // which still reads its own (pre-write) contents
        assert_eq!(service.metrics().live_generations, 2);
        // the batch copied one bucket's worth, and says so
        let copied = service.metrics().maintenance_copied;
        assert_eq!(
            (copied.segments_opened, copied.rows_copied),
            (1, 0),
            "the shared tail is left alone: {copied:?}"
        );
        assert_eq!((copied.shards_cloned, copied.buckets_cloned), (1, 1));
        assert!(service
            .metrics_registry()
            .to_prometheus()
            .contains("beas_service_maintenance_copied_total{what=\"buckets_cloned\"} 1"));
        assert_eq!(
            pinned.database().table("call").unwrap().row_count(),
            rows_before
        );
        // tables the batch never touched share every segment with the old
        // generation — the fork copied handles, not rows
        let current = service.snapshot();
        let business = current.database().table("business").unwrap();
        assert_eq!(
            business.shared_segment_count(pinned.database().table("business").unwrap()),
            business.segment_count(),
            "untouched tables must stay fully shared across generations"
        );
        drop(current);
        // dropping the last pin unpins the generation: the gauge falls and
        // the snapshot (with its private segments) is reclaimed
        drop(pinned);
        assert_eq!(service.metrics().live_generations, 1);
        assert!(weak.upgrade().is_none(), "old snapshot must be freed");
    }

    #[test]
    fn submission_traces_stamp_cache_admission_and_quota_state() {
        let service = service();
        let session = service.session(ResourceQuota::unlimited().with_max_tuples(50_000_000));
        let first = session.execute(COVERED).unwrap();
        let second = session.execute(COVERED).unwrap();
        assert!(!first.trace.cache_hit, "first submission must plan");
        assert!(second.trace.cache_hit, "second submission reuses the plan");
        assert!(
            second.trace.trace_id > first.trace.trace_id,
            "trace ids are unique and monotone"
        );
        assert_eq!(first.trace.generation, first.generation);
        assert_eq!(first.trace.budget, Some(50_000_000));
        assert!(first.trace.deduced_bound.unwrap() > 0, "covered query");
        assert_eq!(first.trace.estimated_tuples, None);
        assert_eq!(
            first.trace.tuples_used,
            first.answer.as_ref().unwrap().tuples_accessed,
            "the trace reports exactly the quota spend"
        );
        // the default level is Counters: phases are recorded without timing
        let names: Vec<&str> = first.trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["prepare", "admit", "execute"]);
        assert!(first.trace.render().contains("cache miss"));
        assert!(second.trace.to_string().contains("cache text-hit"));
        assert!(first.trace.render().contains("deduced bound"));
        // a text not seen before, of the shape just planned
        let third = session
            .execute(&COVERED.replace("'bank'", "'shop'"))
            .unwrap();
        assert!(third.trace.cache_hit, "a shape hit is a hit");
        assert_eq!(third.trace.cache, PlanCacheOutcome::ShapeHit);
        assert!(third.trace.render().contains("cache shape-hit"));
    }

    #[test]
    fn rejected_submissions_trace_the_estimate_and_spend_nothing() {
        let service = service();
        let strict = service.session(ResourceQuota::unlimited().with_max_tuples(10));
        let out = strict.execute(UNCOVERED).unwrap();
        assert!(matches!(out.decision, Decision::Rejected { .. }));
        assert_eq!(out.trace.estimated_tuples, Some(60));
        assert_eq!(out.trace.deduced_bound, None, "uncovered query");
        assert_eq!(out.trace.budget, Some(10));
        assert_eq!(out.trace.tuples_used, 0, "a rejection spends nothing");
        assert!(out.trace.render().contains("estimated 60"), "{}", out.trace);
        assert!(out.answer.is_none());
    }

    #[test]
    fn slow_query_log_captures_submissions_over_the_threshold() {
        let service = service();
        assert_eq!(service.slow_query_threshold(), DEFAULT_SLOW_QUERY_THRESHOLD);
        let session = service.session(ResourceQuota::unlimited());
        session.execute(COVERED).unwrap();
        assert!(
            service.slow_queries().is_empty(),
            "sub-threshold submissions are not logged"
        );
        service.set_slow_query_threshold(Duration::ZERO);
        let out = session.execute(COVERED).unwrap();
        assert!(session.execute("not sql").is_err());
        let entries = service.slow_queries();
        assert_eq!(entries.len(), 2, "zero threshold logs everything");
        assert_eq!(entries[0].trace_id, out.trace.trace_id);
        assert_eq!(entries[0].session, session.id());
        assert_eq!(entries[0].sql, COVERED);
        assert_eq!(entries[0].outcome, "bounded");
        assert_eq!(entries[0].cache, Some(PlanCacheOutcome::TextHit));
        assert_eq!(entries[0].generation, out.generation);
        assert_eq!(entries[1].cache, None);
        assert_eq!(entries[1].trace_id, 0, "failed before tracing completed");
        assert!(
            entries[1].outcome.starts_with("error: "),
            "{}",
            entries[1].outcome
        );
    }

    #[test]
    fn slow_query_log_is_a_bounded_ring() {
        let log = SlowQueryLog::default();
        log.threshold_ns.store(0, Ordering::Relaxed);
        for i in 0..(SLOW_QUERY_LOG_CAP as u64 + 5) {
            log.observe(SlowQueryRecord {
                trace_id: i,
                session: 0,
                sql: String::new(),
                outcome: "bounded".to_string(),
                cache: Some(PlanCacheOutcome::TextHit),
                elapsed: Duration::from_nanos(1),
                generation: 1,
            });
        }
        let entries = log.entries.lock().unwrap();
        assert_eq!(entries.len(), SLOW_QUERY_LOG_CAP);
        assert_eq!(entries.front().unwrap().trace_id, 5, "oldest evicted");
        assert_eq!(
            entries.back().unwrap().trace_id,
            SLOW_QUERY_LOG_CAP as u64 + 4
        );
    }

    #[test]
    fn metrics_registry_exports_prometheus_and_json() {
        let service = service();
        let session = service.session(ResourceQuota::unlimited());
        session.execute(COVERED).unwrap();
        session.execute(COVERED).unwrap();
        session.execute(&COVERED.replace("'r0'", "'r1'")).unwrap();
        let registry = service.metrics_registry();
        let prom = registry.to_prometheus();
        assert!(
            prom.contains("beas_service_decisions_total{decision=\"bounded\"} 3"),
            "{prom}"
        );
        assert!(prom.contains("beas_plan_cache_lookups_total{outcome=\"miss\"} 1"));
        assert!(prom.contains("beas_plan_cache_lookups_total{outcome=\"hit\"} 2"));
        assert!(prom.contains("beas_plan_cache_lookups_total{outcome=\"shape_hit\"} 1"));
        assert!(prom.contains("beas_service_live_generations 1"));
        assert!(prom.contains("beas_submission_latency_ns_count 3"));
        assert!(prom
            .contains("beas_submission_latency_by_decision_ns_bucket{decision=\"bounded\",le=\""));
        assert!(prom.contains("# TYPE beas_submission_latency_ns histogram"));
        assert_eq!(
            prom.matches("# HELP beas_service_decisions_total").count(),
            1,
            "one header per family, not per label set"
        );
        let json = registry.to_json();
        assert!(json.contains("\"name\":\"beas_service_decisions_total\""));
        assert!(json.contains("\"decision\":\"bounded\""));
        assert!(json.contains("\"name\":\"beas_submission_latency_ns\""));
        assert!(json.contains("\"buckets\":["));
    }

    #[test]
    fn admission_reads_the_shape_never_a_literal() {
        // What admission decides on is stored once per query shape, so it
        // must not depend on a literal's value: two parameter sets of one
        // uncovered shape get the same estimate and decision ...
        let service = service();
        let session = service.session(ResourceQuota::unlimited().with_max_tuples(1_200));
        let first = session.admit(UNCOVERED).unwrap();
        let other = UNCOVERED
            .replace("'bank'", "'shop'")
            .replace("'2016-07-04'", "'1999-01-01'");
        assert_eq!(
            first,
            Decision::Baseline {
                estimated_tuples: 60
            }
        );
        assert_eq!(session.admit(&other).unwrap(), first);
        // ... while the length of an IN-list is part of the shape: two
        // lengths of one covered template get two bounds and, under a
        // budget between them, two decisions
        let two = "select recnum from call where pnum in ('p1', 'p2') and date = '2016-07-04'";
        let three =
            "select recnum from call where pnum in ('p1', 'p2', 'p9') and date = '2016-07-04'";
        assert_eq!(
            session.admit(two).unwrap(),
            Decision::Bounded {
                deduced_bound: 1_000
            }
        );
        assert_eq!(
            session.admit(three).unwrap(),
            Decision::Rejected {
                reason: RejectReason::BoundExceedsQuota {
                    deduced_bound: 1_500,
                    max_tuples: 1_200
                }
            }
        );
        let stats = service.plan_cache_stats();
        assert_eq!((stats.misses, stats.shape_hits), (3, 1), "{stats}");
    }
}
