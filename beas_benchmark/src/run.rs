//! One workload, start to finish: set-up, oracle, closed loop, checks,
//! optional traced pass, metrics.

use crate::metrics::Metrics;
use crate::oracle::Expected;
use crate::script::{
    build_script, script_hash, BatchGen, Entry, Expect, Kind, Workload, BATCH_ROWS, CALL_RECORD_ID,
    MIXED_BUDGET,
};
use crate::stats::{median, p50_ns, percentile, windowed_quantile_ns, Sample};
use crate::traced;
use beas::access::{build_indexes, check_conformance};
use beas::common::{ResourceQuota, Row, Value};
use beas::core::BeasSystem;
use beas::engine::{Engine, PlanCacheStats};
use beas::obs::{clock, MetricValue};
use beas::service::{Decision, QueryService, ServiceMetricsSnapshot, Session, SessionOutcome};
use beas::tlc::{generate, tlc_access_schema, TlcConfig};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phases together.
    pub seconds: f64,
    /// Add the single-threaded traced pass and report per-layer metrics.
    pub trace: bool,
    /// Smoke-test sizing: every workload at the small scale, one set-up.
    pub quick: bool,
    /// Where the traced pass writes its spans.
    pub trace_dir: PathBuf,
}

/// What a run found.
#[derive(Debug)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    pub script_hash: u64,
    pub scale: u32,
}

/// Submissions attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    const KEPT_MESSAGES: usize = 5;

    /// Count one submission; returns whether it passed.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.messages.len() < Tally::KEPT_MESSAGES {
                    self.messages.push(format!("{what}: {why}"));
                }
                false
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Tally::KEPT_MESSAGES.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

/// Seconds spent in each part of one set-up.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    generate: f64,
    conformance: f64,
    build_indexes: f64,
    total: f64,
}

/// Everything a user does before the first query: generate the data, check
/// D ⊨ A, build the constraint indices, construct the service.
fn build_service(scale: u32) -> Result<(QueryService, SetupTimes), String> {
    let start = clock::now();
    let db = generate(&TlcConfig::at_scale(scale)).map_err(|e| e.to_string())?;
    let generated = clock::now();
    let schema = tlc_access_schema();
    let report = check_conformance(&db, &schema).map_err(|e| e.to_string())?;
    if !report.conforms() {
        return Err(format!(
            "generated data violates the access schema: {report}"
        ));
    }
    let conformed = clock::now();
    let indexes = build_indexes(&db, &schema).map_err(|e| e.to_string())?;
    let indexed = clock::now();
    let service = QueryService::new(BeasSystem::new(db, schema, indexes));
    let done = clock::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok((
        service,
        SetupTimes {
            generate: secs(start, generated),
            conformance: secs(generated, conformed),
            build_indexes: secs(conformed, indexed),
            total: secs(start, done),
        },
    ))
}

/// Set up `scale` several times over and report the medians: one process
/// start is one sample, and a single sample of a sub-second build is mostly
/// page-fault noise.  Enough repeats to fill a second, at least 3, at most 15;
/// the last service built is the one the run uses.
fn set_up(scale: u32, quick: bool, metrics: &mut Metrics) -> Result<QueryService, String> {
    let (mut service, first) = build_service(scale)?;
    let repeats = if quick {
        1
    } else {
        ((1.0 / first.total) as usize).clamp(3, 15)
    };
    let mut times = vec![first];
    for _ in 1..repeats {
        // one copy of the data at a time, or `rss_mb` would count two
        drop(service);
        let (next, t) = build_service(scale)?;
        times.push(t);
        service = next;
    }
    let med = |f: fn(&SetupTimes) -> f64| {
        median(&times.iter().map(f).collect::<Vec<_>>()).expect("at least one set-up ran")
    };
    metrics.set("setup_s", med(|t| t.total));
    metrics.set("tlc.generate_s", med(|t| t.generate));
    metrics.set("access.conformance_s", med(|t| t.conformance));
    metrics.set("access.build_indexes_s", med(|t| t.build_indexes));
    Ok(service)
}

/// The engine expected answers come from: the conventional engine on its
/// row-at-a-time path, which shares the least code with what is measured
/// (the service's fallback runs the vectorized path).
fn oracle_engine() -> Engine {
    Engine::default().with_exec_profile(beas::engine::ExecProfile::RowAtATime)
}

/// Fill `expected` from the conventional engine for every entry that asks
/// for it.  Each distinct text runs once.
fn fill_oracle(
    service: &QueryService,
    script: &[Entry],
    expected: &mut Expected,
) -> Result<(), String> {
    let snapshot = service.snapshot();
    let engine = oracle_engine();
    let mut first_seen: HashMap<&str, usize> = HashMap::new();
    for (idx, e) in script.iter().enumerate() {
        if !e.oracle || e.volatile || e.expect == Expect::Rejected {
            continue;
        }
        if let Some(&first) = first_seen.get(e.sql.as_str()) {
            expected.copy(first, idx);
            continue;
        }
        let result = engine
            .run(snapshot.database(), &e.sql)
            .map_err(|err| format!("oracle failed on {}: {err}", e.shape))?;
        expected.set(idx, &result.rows, e.expect == Expect::Approximate);
        first_seen.insert(&e.sql, idx);
    }
    Ok(())
}

fn decision_kind(decision: &Decision) -> Expect {
    match decision {
        Decision::Bounded { .. } => Expect::Bounded,
        Decision::Approximate { .. } => Expect::Approximate,
        Decision::Baseline { .. } => Expect::Baseline,
        Decision::Rejected { .. } => Expect::Rejected,
    }
}

/// Check one outcome against its script entry: the decision, the deduced
/// bound or budget as a true cap on tuples accessed, and the answer.
pub fn check_outcome(
    entry: &Entry,
    idx: usize,
    expected: &Expected,
    out: &SessionOutcome,
) -> Result<(), String> {
    if decision_kind(&out.decision) != entry.expect {
        return Err(format!(
            "decided {}, script expects {}",
            out.decision,
            entry.expect.name()
        ));
    }
    let Some(answer) = &out.answer else {
        return match out.decision {
            Decision::Rejected { .. } => Ok(()),
            _ => Err("admitted but no answer".to_string()),
        };
    };
    match out.decision {
        Decision::Rejected { .. } => Err("rejected yet answered".to_string()),
        Decision::Approximate { budget } => {
            if answer.tuples_accessed > budget {
                return Err(format!(
                    "approximation accessed {} tuples, budget {budget}",
                    answer.tuples_accessed
                ));
            }
            if !(0.0..=1.0).contains(&answer.coverage) {
                return Err(format!("coverage {} outside [0, 1]", answer.coverage));
            }
            expected.check_subset(idx, &answer.rows)
        }
        Decision::Bounded { deduced_bound } if answer.tuples_accessed > deduced_bound => {
            Err(format!(
                "accessed {} tuples, deduced bound {deduced_bound}",
                answer.tuples_accessed
            ))
        }
        Decision::Bounded { .. } | Decision::Baseline { .. } => {
            if entry.volatile {
                Ok(())
            } else {
                expected.check_exact(idx, &answer.rows)
            }
        }
    }
}

/// Offsets, in nanoseconds from `origin`, of a warm-up followed by a
/// measured phase.
#[derive(Debug, Clone, Copy)]
struct Phase {
    origin: Instant,
    warm_ns: u64,
    end_ns: u64,
}

impl Phase {
    fn starting_now(warm: Duration, measured: Duration) -> Phase {
        Phase {
            origin: clock::now(),
            warm_ns: warm.as_nanos() as u64,
            end_ns: (warm + measured).as_nanos() as u64,
        }
    }

    fn measured_ns(&self) -> u64 {
        self.end_ns - self.warm_ns
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        (at - self.origin).as_nanos() as u64
    }
}

/// What one reader thread saw.
#[derive(Debug, Default)]
struct ReadStats {
    tally: Tally,
    /// Answered reads inside the measured phase.
    reads: Vec<Sample>,
    point_lat_ns: Vec<u64>,
    point_tuples: u64,
    /// Correct submissions inside the measured phase, rejections included.
    completed: u64,
    /// Tuples accessed by those reads, and the same two totals as they stood
    /// when the last whole pass over the script ended.  Passes are counted
    /// from the first submission inside the phase: any `script.len()`
    /// consecutive submissions hold every text once.
    all_tuples: u64,
    pass_tuples: u64,
    pass_reads: u64,
}

/// A closed loop: walk the script from `start`, submit, wait, check, repeat
/// until the phase ends.  The one stopwatch is around `Session::execute`.
fn read_loop(
    session: &Session,
    script: &[Entry],
    expected: &Expected,
    start: usize,
    phase: Phase,
) -> ReadStats {
    let mut stats = ReadStats {
        reads: Vec::with_capacity(1 << 20),
        ..ReadStats::default()
    };
    let mut last_generation = 0;
    let mut offset_ns = 0;
    let mut steps_in_phase = 0;
    for step in 0.. {
        if offset_ns >= phase.end_ns {
            break;
        }
        let idx = (start + step) % script.len();
        let entry = &script[idx];
        let begin = clock::now();
        let result = session.execute(&entry.sql);
        let lat = begin.elapsed();
        offset_ns = phase.offset_ns(begin) + lat.as_nanos() as u64;

        let verdict = match &result {
            Err(e) => Err(format!("error: {e}")),
            Ok(out) if out.generation < last_generation => Err(format!(
                "generation went back from {last_generation} to {}",
                out.generation
            )),
            Ok(out) => {
                last_generation = out.generation;
                check_outcome(entry, idx, expected, out)
            }
        };
        let passed = stats.tally.record(entry.shape, verdict);
        if offset_ns < phase.warm_ns || offset_ns >= phase.end_ns {
            continue;
        }
        if let (true, Ok(out)) = (passed, result) {
            stats.completed += 1;
            if let Some(answer) = out.answer {
                let lat_ns = lat.as_nanos() as u64;
                stats.reads.push(Sample {
                    end_ns: offset_ns - phase.warm_ns,
                    lat_ns,
                });
                stats.all_tuples += answer.tuples_accessed;
                if entry.point {
                    stats.point_lat_ns.push(lat_ns);
                    stats.point_tuples += answer.tuples_accessed;
                }
            }
        }
        steps_in_phase += 1;
        if steps_in_phase % script.len() == 0 {
            stats.pass_tuples = stats.all_tuples;
            stats.pass_reads = stats.reads.len() as u64;
        }
    }
    stats
}

/// The writer's side of the run.
pub struct Writer {
    gen: BatchGen,
    /// Batches generated so far.
    next: u64,
    /// The benchmark's batch still in `call`, if any.
    live: Option<u64>,
}

/// What the writer saw.
#[derive(Debug, Default)]
struct WriteStats {
    tally: Tally,
    /// Maintenance rounds inside the measured phase.
    rounds: Vec<Sample>,
    live_generations_max: u64,
}

pub(crate) fn batch_predicate(n: u64) -> impl FnMut(&Row) -> bool {
    let ids = BatchGen::ids(n);
    move |row| matches!(row[CALL_RECORD_ID], Value::Int(id) if ids.contains(&id))
}

impl Writer {
    pub fn new(seed: u64, scale: u32) -> Writer {
        Writer {
            gen: BatchGen::new(seed, scale),
            next: 0,
            live: None,
        }
    }

    /// Rows of the next batch and the number of the batch to delete after
    /// inserting it (none on the first round after a quiesce).
    pub fn next_round(&mut self) -> (Vec<Row>, Option<u64>) {
        let n = self.next;
        self.next += 1;
        (self.gen.batch(n), self.live.replace(n))
    }

    /// One maintenance round: insert a batch, delete the previous one, so
    /// |D| stays level.  Returns the round's latency, whether it was a full
    /// round, and its verdict; the one stopwatch is around the two service
    /// calls.
    fn round(&mut self, service: &QueryService) -> (Duration, bool, Result<(), String>) {
        let (rows, delete) = self.next_round();
        let begin = clock::now();
        let inserted = service.insert_rows("call", rows);
        let deleted = delete.map(|n| service.delete_rows("call", batch_predicate(n)));
        let lat = begin.elapsed();
        let verdict = check_maintenance("insert", inserted).and_then(|()| match deleted {
            Some(outcome) => check_maintenance("delete", outcome),
            None => Ok(()),
        });
        (lat, delete.is_some(), verdict)
    }

    /// Delete the batch still in `call`, returning D to its generated state.
    pub fn quiesce(&mut self, service: &QueryService) -> Result<(), String> {
        match self.live.take() {
            Some(n) => check_maintenance("delete", service.delete_rows("call", batch_predicate(n))),
            None => Ok(()),
        }
    }
}

/// A batch must move exactly its rows and leave every bound alone.
pub fn check_maintenance(
    what: &str,
    outcome: beas::common::Result<beas::access::MaintenanceOutcome>,
) -> Result<(), String> {
    let outcome = outcome.map_err(|e| format!("{what} error: {e}"))?;
    if outcome.rows_affected != BATCH_ROWS {
        return Err(format!(
            "{what} moved {} rows, batch has {BATCH_ROWS}",
            outcome.rows_affected
        ));
    }
    if !outcome.flagged.is_empty() || !outcome.adjusted.is_empty() {
        return Err(format!(
            "{what} violated a bound: flagged {:?}, adjusted {:?}",
            outcome.flagged, outcome.adjusted
        ));
    }
    Ok(())
}

fn write_loop(writer: &mut Writer, service: &QueryService, phase: Phase) -> WriteStats {
    let mut stats = WriteStats::default();
    loop {
        let begin = clock::now();
        if phase.offset_ns(begin) >= phase.end_ns {
            break;
        }
        let (lat, full, verdict) = writer.round(service);
        let passed = stats.tally.record("maintenance", verdict);
        // A phase's first round has no batch to delete; it is not a full
        // round and falls in the warm-up in any case.
        let offset_ns = phase.offset_ns(begin) + lat.as_nanos() as u64;
        if passed && full && offset_ns >= phase.warm_ns && offset_ns < phase.end_ns {
            stats.rounds.push(Sample {
                end_ns: offset_ns - phase.warm_ns,
                lat_ns: lat.as_nanos() as u64,
            });
        }
        let live = service.metrics().live_generations;
        stats.live_generations_max = stats.live_generations_max.max(live);
    }
    stats
}

/// After the writer has quiesced: run every distinct admitted text through
/// the session and through the conventional engine on the final snapshot.
fn verify_quiesced(service: &QueryService, session: &Session, script: &[Entry], tally: &mut Tally) {
    let snapshot = service.snapshot();
    let engine = oracle_engine();
    let mut seen: HashSet<&str> = HashSet::new();
    let mut fresh = Expected::new(script.len());
    for (idx, e) in script.iter().enumerate() {
        if e.expect == Expect::Rejected || !seen.insert(&e.sql) {
            continue;
        }
        let verdict = engine
            .run(snapshot.database(), &e.sql)
            .map_err(|err| format!("engine error: {err}"))
            .and_then(|exact| {
                fresh.set(idx, &exact.rows, e.expect == Expect::Approximate);
                let out = session
                    .execute(&e.sql)
                    .map_err(|err| format!("error: {err}"))?;
                let settled = Entry {
                    volatile: false,
                    ..e.clone()
                };
                check_outcome(&settled, idx, &fresh, &out)
            });
        tally.record(e.shape, verdict);
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cost of one clock read, in nanoseconds.
fn timer_cost_ns() -> f64 {
    const READS: u32 = 100_000;
    let begin = clock::now();
    for _ in 0..READS {
        std::hint::black_box(clock::now());
    }
    begin.elapsed().as_nanos() as f64 / READS as f64
}

/// The product's own p50 for one decision, from its power-of-two histogram
/// (an upper bound with up to 2x resolution error), in microseconds.
fn service_p50_us(service: &QueryService, decision: &str) -> Option<f64> {
    let registry = service.metrics_registry();
    let metric = registry.metrics().iter().find(|m| {
        m.name == "beas_submission_latency_by_decision_ns"
            && m.labels
                .iter()
                .any(|(k, v)| k == "decision" && v == decision)
    })?;
    let MetricValue::Histogram { buckets, count } = &metric.value else {
        return None;
    };
    let rank = count.div_ceil(2).max(1);
    let (upper_ns, _) = buckets.iter().find(|(_, cumulative)| *cumulative >= rank)?;
    Some(*upper_ns as f64 / 1e3)
}

fn ns_to_us(ns: f64) -> f64 {
    ns / 1e3
}

/// The counters the product keeps for itself, over the closed loop (warm-up
/// included): plan-cache traffic, admission decisions, and the service's own
/// per-decision latency histograms.
fn product_counters(
    service: &QueryService,
    (cache_before, cache_after): (&PlanCacheStats, &PlanCacheStats),
    (decided_before, decided_after): (&ServiceMetricsSnapshot, &ServiceMetricsSnapshot),
    metrics: &mut Metrics,
) {
    let lookups =
        (cache_after.hits - cache_before.hits) + (cache_after.misses - cache_before.misses);
    if lookups > 0 {
        metrics.set(
            "core.plan_cache.hit_rate",
            (cache_after.hits - cache_before.hits) as f64 / lookups as f64,
        );
    }
    metrics.set(
        "core.plan_cache.invalidations",
        (cache_after.invalidations - cache_before.invalidations) as f64,
    );
    let decided = (decided_after.decisions() - decided_before.decisions()).max(1) as f64;
    for (name, after, before) in [
        (
            "service.decision.bounded_frac",
            decided_after.decided_bounded,
            decided_before.decided_bounded,
        ),
        (
            "service.decision.approximate_frac",
            decided_after.decided_approximate,
            decided_before.decided_approximate,
        ),
        (
            "service.decision.baseline_frac",
            decided_after.decided_baseline,
            decided_before.decided_baseline,
        ),
        (
            "service.decision.rejected_frac",
            decided_after.admission_rejections,
            decided_before.admission_rejections,
        ),
    ] {
        metrics.set(name, (after - before) as f64 / decided);
    }
    for (name, decision) in [
        ("service.bounded.p50_us", "bounded"),
        ("service.approximate.p50_us", "approximate"),
        ("service.baseline.p50_us", "baseline"),
        ("service.rejected.p50_us", "rejected"),
    ] {
        metrics.set_some(name, service_p50_us(service, decision));
    }
}

/// Slices the windowed tail percentiles cut a phase into.
const TAIL_WINDOWS: usize = 10;

/// Run one workload.
pub fn run(config: &RunConfig) -> Result<RunReport, String> {
    let workload = &config.workload;
    let scale = workload.scale(config.quick);
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();

    let service = set_up(scale, config.quick, &mut metrics)?;

    let script = build_script(workload, config.seed, scale);
    let mut expected = Expected::new(script.len());
    let oracle_start = clock::now();
    fill_oracle(&service, &script, &mut expected)?;
    metrics.set("bench.oracle_s", oracle_start.elapsed().as_secs_f64());
    let texts: HashSet<&str> = script.iter().map(|e| e.sql.as_str()).collect();
    metrics.set("bench.script_texts", texts.len() as f64);

    // How the measured seconds are split.  Read-only workloads measure
    // maintenance in a phase of its own after the readers stop; `mixed_rw`
    // runs its writer beside its reader for the whole closed loop.  A traced
    // run gives half its time to the traced pass.
    let mixed = workload.kind == Kind::Mixed;
    let untraced = if config.trace { 0.5 } else { 1.0 };
    let (loop_share, write_share) = if mixed { (1.0, 0.0) } else { (0.8, 0.2) };
    let secs = |share: f64| Duration::from_secs_f64(config.seconds * untraced * share);
    let warm = Duration::from_secs_f64((config.seconds * 0.1).max(0.2));

    let quota = if mixed {
        ResourceQuota::unlimited().with_max_tuples(MIXED_BUDGET)
    } else {
        ResourceQuota::unlimited()
    };
    let new_session = || {
        let session = service.session(quota);
        if mixed {
            session.with_approximation()
        } else {
            session
        }
    };
    let mut writer = Writer::new(config.seed, scale);
    let call_rows = |service: &QueryService| {
        service
            .snapshot()
            .database()
            .table("call")
            .map(|t| t.row_count())
            .map_err(|e| e.to_string())
    };
    let call_rows_before = call_rows(&service)?;

    // The closed loop.
    let cache_before = service.plan_cache_stats();
    let decided_before = service.metrics();
    let sessions: Vec<Session> = (0..workload.readers()).map(|_| new_session()).collect();
    let phase = Phase::starting_now(warm, secs(loop_share));
    let (read_stats, mixed_writes) = std::thread::scope(|scope| {
        let readers: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(i, session)| {
                // Readers start evenly spaced along the script.
                let start = i * script.len() / sessions.len();
                let (script, expected) = (&script, &expected);
                scope.spawn(move || read_loop(session, script, expected, start, phase))
            })
            .collect();
        let writes = mixed.then(|| write_loop(&mut writer, &service, phase));
        let reads: Vec<ReadStats> = readers
            .into_iter()
            .map(|r| r.join().expect("reader thread panicked"))
            .collect();
        (reads, writes)
    });
    let cache_after = service.plan_cache_stats();
    let decided_after = service.metrics();

    // A traced run of a read-only workload traces its reads here, before
    // any maintenance: the batches replace `call` and its indices with fresh
    // copies, and reads right after that run slower than in the loop above.
    let mut pass = config.trace.then(|| {
        traced::Pass::new(traced::TracedInput {
            service: &service,
            session: new_session(),
            allow_approximate: mixed,
            script: &script,
            expected: &expected,
        })
    });
    // A traced read costs about four real ones.
    let budget_s = config.seconds * 0.5;
    let completed: u64 = read_stats.iter().map(|s| s.completed).sum();
    let reads_per_s =
        completed as f64 / workload.readers() as f64 / phase.measured_ns() as f64 * 1e9;
    let read_share = if mixed { 0.5 } else { 0.8 };
    let traced_reads = ((budget_s * read_share * reads_per_s / 4.0) as usize).clamp(200, 2_000);
    if let (Some(pass), false) = (&mut pass, mixed) {
        pass.reads(0..traced_reads);
    }

    // Maintenance on its own, for the workloads whose loop has no writer.
    let write_stats = match mixed_writes {
        Some(stats) => stats,
        // No warm-up: the phase's first round, which has no batch to delete,
        // is left out as it is.
        None => write_loop(
            &mut writer,
            &service,
            Phase::starting_now(Duration::ZERO, secs(write_share)),
        ),
    };
    tally.record("quiesce", writer.quiesce(&service));
    let call_rows_after = call_rows(&service)?;
    tally.record(
        "quiesce",
        if call_rows_after == call_rows_before {
            Ok(())
        } else {
            Err(format!(
                "call holds {call_rows_after} rows after quiescing, {call_rows_before} before"
            ))
        },
    );
    if mixed {
        verify_quiesced(&service, &sessions[0], &script, &mut tally);
    }
    metrics.set_some("rss_mb", peak_rss_mb());

    // End-to-end metrics.
    let loop_s = phase.measured_ns() as f64 / 1e9;
    let mut reads: Vec<Sample> = Vec::new();
    let mut point_lat: Vec<u64> = Vec::new();
    let (mut pass_tuples, mut pass_reads) = (0u64, 0u64);
    let (mut all_tuples, mut point_tuples) = (0u64, 0u64);
    for stats in read_stats {
        pass_tuples += stats.pass_tuples;
        pass_reads += stats.pass_reads;
        all_tuples += stats.all_tuples;
        point_tuples += stats.point_tuples;
        reads.extend(stats.reads);
        point_lat.extend(stats.point_lat_ns);
        tally.merge(stats.tally);
    }
    let rounds_in_loop = if mixed {
        write_stats.rounds.len() as u64
    } else {
        0
    };
    metrics.set("ops_per_s", (completed + rounds_in_loop) as f64 / loop_s);
    metrics.set_some("read_p50_us", p50_ns(&reads).map(ns_to_us));
    let tail = |q: f64| {
        windowed_quantile_ns(&reads, q, phase.measured_ns(), TAIL_WINDOWS).map(|(p, _)| ns_to_us(p))
    };
    metrics.set_some("read_p95_us", tail(0.95));
    metrics.set_some("read.p99_us", tail(0.99));
    metrics.set_some("write_p50_us", p50_ns(&write_stats.rounds).map(ns_to_us));
    // Whole script passes only, where there are any: every pass holds the
    // same texts, so the mean repeats exactly however many operations the
    // phase had time for.  `mixed_rw` answers change under the writer and
    // its passes are few; it reports the mean over the whole phase.
    let (tuples, answered) = if pass_reads > 0 && !mixed {
        (pass_tuples, pass_reads)
    } else {
        (all_tuples, reads.len() as u64)
    };
    if answered > 0 {
        metrics.set("tuples_per_op", tuples as f64 / answered as f64);
    }

    // Counters the product and the loop kept.
    metrics.set("read.samples", reads.len() as f64);
    metrics.set("write.samples", write_stats.rounds.len() as f64);
    // Rounds take tens of milliseconds, so a phase holds tens of them: the
    // 90th percentile is as far out as ten samples beyond it allow.
    let mut round_ns: Vec<u64> = write_stats.rounds.iter().map(|s| s.lat_ns).collect();
    round_ns.sort_unstable();
    metrics.set_some("write.p90_us", percentile(&round_ns, 0.9).map(ns_to_us));
    point_lat.sort_unstable();
    metrics.set_some(
        "read.point_p50_us",
        percentile(&point_lat, 0.5).map(ns_to_us),
    );
    if !point_lat.is_empty() {
        metrics.set(
            "read.point_tuples_per_op",
            point_tuples as f64 / point_lat.len() as f64,
        );
    }
    product_counters(
        &service,
        (&cache_before, &cache_after),
        (&decided_before, &decided_after),
        &mut metrics,
    );
    metrics.set(
        "service.live_generations_max",
        write_stats.live_generations_max as f64,
    );
    metrics.set("bench.timer_ns", timer_cost_ns());
    tally.merge(write_stats.tally);

    if let Some(mut pass) = pass {
        // A traced round costs about three real ones.
        let round_s = metrics.get("write_p50_us").map_or(0.1, |us| us / 1e6);
        if mixed {
            // Blocks of reads with a round between them, as many rounds per
            // read as the closed loop ran.
            let rounds =
                (traced_reads * rounds_in_loop as usize / completed.max(1) as usize).clamp(3, 50);
            for block in 0..rounds {
                pass.reads(block * traced_reads / rounds..(block + 1) * traced_reads / rounds);
                pass.round(&mut writer);
            }
        } else {
            for _ in 0..((budget_s * 0.2 / (3.0 * round_s)) as usize).clamp(3, 50) {
                pass.round(&mut writer);
            }
        }
        tally.record("quiesce", writer.quiesce(&service));
        let out = config
            .trace_dir
            .join(format!("trace-{}.jsonl", workload.name));
        tally.merge(pass.finish(&out, &mut metrics)?);
    }

    Ok(RunReport {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.messages,
        metrics,
        script_hash: script_hash(&script),
        scale,
    })
}
