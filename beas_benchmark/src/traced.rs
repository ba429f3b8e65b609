//! The traced pass: one thread walks the same script, makes each real call
//! inside a span, then replays the calls that one makes inside, layer by
//! layer, through the layers' public functions (see [`crate::trace`]).
//!
//! Reads are replayed *stage by stage*: first every real submission of a
//! block, then `prepare` for every one of them, then `admit_prepared` for
//! every one, and so on down to the index probe.  Replaying all stages of
//! one submission back to back would run each stage on data the stage before
//! it had just pulled into the processor's caches — faster than inside the
//! real call, where the previous submission was a different text — and the
//! difference would pile up in the parent's self time.

use crate::metrics::Metrics;
use crate::oracle::Expected;
use crate::run::{batch_predicate, check_maintenance, check_outcome, Tally, Writer};
use crate::script::Entry;
use crate::stats::median;
use crate::trace::{median_dur_us, median_self_us, ns_per_count, self_times_ns, Span, Tracer};
use beas::core::{
    execute_ctx_with, execute_partially_bounded, generate_bounded_plan, BeasSystem, BoundedPlan,
    Checker, CoverageResult, KeySource, PreparedQuery, QueryGraph,
};
use beas::engine::Engine;
use beas::obs::clock;
use beas::service::{admit_prepared, Decision, PinnedSnapshot, QueryService, Session};
use beas::sql::{parse_select, Binder, BoundQuery};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// What the traced pass reads and submits through.
pub struct TracedInput<'a> {
    pub service: &'a QueryService,
    pub session: Session,
    /// Whether `session` falls back to approximation (it has no getter).
    pub allow_approximate: bool,
    pub script: &'a [Entry],
    pub expected: &'a Expected,
}

/// Submissions replayed together.  A block keeps every submission's
/// planning products alive from stage to stage; with thousands alive the
/// allocator runs out of recycled memory, every parse and bind of the replay
/// then faults in fresh pages, and the planning stages read 2x slow.  200 is
/// longer than a repeating script, so data still goes cold between stages.
const BLOCK: usize = 200;
/// Index fetches per `storage.index_fetch_x32` span; one fetch is shorter
/// than two clock reads.
const FETCH_REPEATS: u32 = 32;

/// The planning products of one submission.
struct Planned {
    query: BoundQuery,
    graph: QueryGraph,
    coverage: CoverageResult,
    plan: Option<BoundedPlan>,
}

/// One traced submission, carried from stage to stage.
struct Op<'a> {
    id: u32,
    entry: &'a Entry,
    /// Span of the real `Session::execute`.
    exec: u32,
    cache_hit: bool,
    prepared: Option<Arc<PreparedQuery>>,
    planned: Option<Planned>,
    decision: Option<Decision>,
    /// Spans of the replayed `execute_prepared`, `execute_partially_bounded`,
    /// `run_bound` and `Engine::plan`, each the parent of the next stage.
    run: Option<u32>,
    partial: Option<u32>,
    run_bound: Option<u32>,
    engine_plan: Option<u32>,
}

/// The traced pass: blocks of reads and maintenance rounds in whatever order
/// the workload calls for, then [`Pass::finish`].
pub struct Pass<'a> {
    input: TracedInput<'a>,
    tracer: Tracer,
    tally: Tally,
    /// A system over the current snapshot's data with a plan cache of its
    /// own, so replaying a cache miss does not empty the service's cache.
    replay: Option<(u64, BeasSystem)>,
    engine: Engine,
    shared_segment_fracs: Vec<f64>,
}

/// The private-cache system for `snapshot`, rebuilt when the data moved.
/// Cloning the database and indices copies handles, not rows.
fn replay_system<'r>(
    slot: &'r mut Option<(u64, BeasSystem)>,
    snapshot: &PinnedSnapshot,
) -> &'r BeasSystem {
    let generation = snapshot.database().generation();
    if slot.as_ref().map(|(g, _)| *g) != Some(generation) {
        let system = BeasSystem::new(
            snapshot.database().clone(),
            snapshot.access_schema().clone(),
            snapshot.indexes().clone(),
        );
        *slot = Some((generation, system));
    }
    &slot.as_ref().expect("just built").1
}

/// Run `f` as a child span of `parent`, or untimed when there is none.
fn stage<T>(
    tracer: &mut Tracer,
    parent: Option<u32>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match parent {
        Some(_) => tracer.time(name, parent, f).0,
        None => f(),
    }
}

/// One stage over every submission of a block.  A submission whose replay
/// fails where the real call passed is dropped from the later stages and
/// reported: that is a fault of the replay, not of the program.
fn each<'a>(
    ops: &mut Vec<Op<'a>>,
    tracer: &mut Tracer,
    mut f: impl FnMut(&mut Tracer, &mut Op<'a>) -> beas::common::Result<()>,
) {
    ops.retain_mut(|op| {
        tracer.resume_op(op.id);
        f(tracer, op)
            .map_err(|why| eprintln!("trace: replay of {} failed: {why}", op.entry.shape))
            .is_ok()
    });
}

/// The key of the first fetch step that constants alone key.
fn constant_key(
    plan: &BoundedPlan,
) -> Option<(&beas::access::AccessConstraint, Vec<beas::common::Value>)> {
    plan.fetches.iter().find_map(|f| {
        let key: Option<Vec<_>> = f
            .keys
            .iter()
            .map(|k| match k {
                KeySource::Constant(v) => Some(v.clone()),
                _ => None,
            })
            .collect();
        key.map(|key| (&f.constraint, key))
    })
}

impl<'a> Pass<'a> {
    pub fn new(input: TracedInput<'a>) -> Pass<'a> {
        let snapshot = input.service.snapshot();
        // The engine the service falls back to, configured as it is there.
        let engine = Engine::default()
            .with_parallelism(snapshot.parallel_fallback())
            .with_exec_profile(snapshot.exec_fallback());
        Pass {
            input,
            tracer: Tracer::new(),
            tally: Tally::default(),
            replay: None,
            engine,
            shared_segment_fracs: Vec::new(),
        }
    }

    /// Trace script entries `steps`, by position counted from the top of the
    /// script and wrapping.  The snapshot must not move during the call.
    pub fn reads(&mut self, steps: std::ops::Range<usize>) {
        let mut from = steps.start;
        while from < steps.end {
            let to = (from + BLOCK).min(steps.end);
            self.block(from..to);
            from = to;
        }
    }

    /// One block: the real submissions, then their replay one stage at a
    /// time.
    fn block(&mut self, steps: std::ops::Range<usize>) {
        let len = self.input.script.len();
        let indices = steps.map(|step| step % len);
        let script = self.input.script;
        let service = self.input.service;
        let session = &self.input.session;
        let tracer = &mut self.tracer;

        let mut ops: Vec<Op<'a>> = Vec::new();
        for idx in indices {
            let entry = &script[idx];
            let id = tracer.begin_op();
            let (result, exec) =
                tracer.time("service.execute", None, || session.execute(&entry.sql));
            tracer.set_shape(exec, entry.shape);
            let verdict = match &result {
                Ok(out) => check_outcome(entry, idx, self.input.expected, out),
                Err(e) => Err(format!("error: {e}")),
            };
            if let (true, Ok(out)) = (self.tally.record(entry.shape, verdict), result) {
                ops.push(Op {
                    id,
                    entry,
                    exec,
                    cache_hit: out.trace.cache_hit,
                    prepared: None,
                    planned: None,
                    decision: None,
                    run: None,
                    partial: None,
                    run_bound: None,
                    engine_plan: None,
                });
            }
        }

        each(&mut ops, tracer, |tracer, op| {
            tracer.time("service.pin", Some(op.exec), || service.snapshot());
            Ok(())
        });
        let snapshot = service.snapshot();
        let db = snapshot.database();

        // prepare: a hit against the service's cache, or a miss against an
        // emptied private one with the five planning stages under it.
        let replay = replay_system(&mut self.replay, &snapshot);
        each(&mut ops, tracer, |tracer, op| {
            let sql = op.entry.sql.as_str();
            let (prepared, miss) = if op.cache_hit {
                let (p, id) = tracer.time("core.prepare_hit", Some(op.exec), || {
                    snapshot.prepare_traced(sql)
                });
                let (prepared, hit) = p?;
                if !hit {
                    // Evicted since the real call (`covered_cold` clears the
                    // cache every 256 misses): this replay was a miss.
                    tracer.rename(id, "core.prepare_miss");
                }
                (prepared, None)
            } else {
                replay.clear_plan_cache();
                let (p, id) =
                    tracer.time("core.prepare_miss", Some(op.exec), || replay.prepare(sql));
                (p?, Some(id))
            };
            op.prepared = Some(prepared);
            // The execution replays need the planning products either way;
            // they are spans only under a miss.
            let stmt = stage(tracer, miss, "sql.parse", || parse_select(sql))?;
            let query = stage(tracer, miss, "sql.bind", || Binder::new(db).bind(&stmt))?;
            let graph = stage(tracer, miss, "core.graph", || QueryGraph::build(&query))?;
            let coverage = stage(tracer, miss, "core.check", || {
                Checker::new(snapshot.access_schema()).check(&query, &graph)
            });
            let plan = match coverage.covered {
                true => Some(stage(tracer, miss, "core.plan", || {
                    generate_bounded_plan(&query, &graph, &coverage)
                })?),
                false => None,
            };
            op.planned = Some(Planned {
                query,
                graph,
                coverage,
                plan,
            });
            Ok(())
        });

        let quota = session.quota();
        let allow_approximate = self.input.allow_approximate;
        each(&mut ops, tracer, |tracer, op| {
            let prepared = op.prepared.as_ref().expect("prepared above");
            let (decision, _) = tracer.time("service.admit", Some(op.exec), || {
                admit_prepared(&snapshot, prepared, &quota, allow_approximate)
            });
            op.decision = Some(decision?);
            Ok(())
        });

        each(&mut ops, tracer, |tracer, op| {
            let prepared = op.prepared.as_ref().expect("prepared above");
            match op.decision.expect("decided above") {
                Decision::Rejected { .. } => {}
                Decision::Approximate { budget } => {
                    let (r, _) = tracer.time("core.approximate", Some(op.exec), || {
                        snapshot.approximate_prepared(prepared, budget)
                    });
                    r?;
                }
                Decision::Bounded { .. } | Decision::Baseline { .. } => {
                    let tracker = quota.tracker();
                    let (r, run) = tracer.time("core.execute_prepared", Some(op.exec), || {
                        snapshot.execute_prepared(prepared, Some(&tracker))
                    });
                    r?;
                    op.run = Some(run);
                }
            }
            Ok(())
        });

        // Bounded execution: the fetch stage, then one index lookup.
        let bounded = |op: &Op| matches!(op.decision, Some(Decision::Bounded { .. }));
        each(&mut ops, tracer, |tracer, op| {
            let (Some(Decision::Bounded { deduced_bound }), Some(run)) = (op.decision, op.run)
            else {
                return Ok(());
            };
            let planned = op.planned.as_ref().expect("planned above");
            let plan = planned
                .plan
                .as_ref()
                .expect("a bounded decision has a plan");
            tracer.set_count(run, deduced_bound);
            let (ctx, fetch) = tracer.time("core.fetch", Some(run), || {
                execute_ctx_with(
                    plan,
                    &planned.query,
                    &planned.graph,
                    snapshot.indexes(),
                    snapshot.fetch_config(),
                    None,
                )
            });
            tracer.set_count(fetch, ctx?.tuples_accessed);
            Ok(())
        });
        each(&mut ops, tracer, |tracer, op| {
            let plan = op.planned.as_ref().and_then(|p| p.plan.as_ref());
            if let Some((constraint, key)) = plan.filter(|_| bounded(op)).and_then(constant_key) {
                let indexes = snapshot.indexes();
                let (_, id) = tracer.time("storage.index_fetch_x32", None, || {
                    for _ in 0..FETCH_REPEATS {
                        let _ = black_box(indexes.fetch(constraint, black_box(&key)));
                    }
                });
                tracer.set_count(id, FETCH_REPEATS as u64);
            }
            Ok(())
        });

        // Conventional execution: partial evaluation, the engine under it,
        // its planner, and the statistics the planner reads.
        let engine = self.engine;
        let baseline = |op: &Op| matches!(op.decision, Some(Decision::Baseline { .. }));
        each(&mut ops, tracer, |tracer, op| {
            if let (true, Some(p)) = (baseline(op), &op.planned) {
                let (r, id) = tracer.time("core.partial", op.run, || {
                    execute_partially_bounded(
                        db,
                        &engine,
                        &p.query,
                        &p.graph,
                        &p.coverage,
                        snapshot.indexes(),
                    )
                });
                r?;
                op.partial = Some(id);
            }
            Ok(())
        });
        each(&mut ops, tracer, |tracer, op| {
            if let (true, Some(p)) = (baseline(op), &op.planned) {
                let (r, id) = tracer.time("engine.run_bound", op.partial, || {
                    engine.run_bound(db, &p.query)
                });
                tracer.set_count(id, r?.metrics.total_tuples_accessed());
                op.run_bound = Some(id);
            }
            Ok(())
        });
        each(&mut ops, tracer, |tracer, op| {
            if let (true, Some(p)) = (baseline(op), &op.planned) {
                let (r, id) =
                    tracer.time("engine.plan", op.run_bound, || engine.plan(db, &p.query));
                r?;
                op.engine_plan = Some(id);
            }
            Ok(())
        });
        each(&mut ops, tracer, |tracer, op| {
            if let (true, Some(p)) = (baseline(op), &op.planned) {
                let (r, _) = tracer.time("storage.stats", op.engine_plan, || {
                    p.query
                        .tables
                        .iter()
                        .try_for_each(|t| db.statistics(&t.table).map(|_| ()))
                });
                r?;
            }
            Ok(())
        });
    }

    /// One maintenance round: each real call, then the fork and the batch
    /// application it makes inside, replayed on the snapshot it started from.
    pub fn round(&mut self, writer: &mut Writer) {
        let service = self.input.service;
        let (rows, delete) = writer.next_round();
        self.tracer.begin_op();

        let before = service.snapshot();
        let (outcome, insert) = self.tracer.time("service.insert_rows", None, || {
            service.insert_rows("call", rows.clone())
        });
        let mut verdict = check_maintenance("insert", outcome);
        let (mut fork, _) = self
            .tracer
            .time("core.fork", Some(insert), || before.fork());
        let (replayed, _) = self.tracer.time("access.insert_batch", Some(insert), || {
            fork.insert_rows("call", rows)
        });
        drop(fork);
        if let Err(e) = replayed {
            eprintln!("trace: replay of insert failed: {e}");
        }
        let after = service.snapshot();
        if let (Ok(old), Ok(new)) = (
            before.database().table("call"),
            after.database().table("call"),
        ) {
            let segments = new.segment_count().max(1) as f64;
            self.shared_segment_fracs
                .push(new.shared_segment_count(old) as f64 / segments);
        }
        drop(before);

        if let Some(n) = delete {
            let (outcome, delete_span) = self.tracer.time("service.delete_rows", None, || {
                service.delete_rows("call", batch_predicate(n))
            });
            verdict = verdict.and(check_maintenance("delete", outcome));
            let (mut fork, _) = self
                .tracer
                .time("core.fork", Some(delete_span), || after.fork());
            let (replayed, _) = self
                .tracer
                .time("access.delete_batch", Some(delete_span), || {
                    fork.delete_rows("call", batch_predicate(n))
                });
            if let Err(e) = replayed {
                eprintln!("trace: replay of delete failed: {e}");
            }
        }
        self.tally.record("maintenance", verdict);
    }
}

/// Time one filtering scan of `call` through the storage layer's row
/// iterator: nanoseconds per row.
fn scan_ns_per_row(service: &QueryService) -> Option<f64> {
    let snapshot = service.snapshot();
    let table = snapshot.database().table("call").ok()?;
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let begin = clock::now();
            let (mut rows, mut long) = (0u64, 0u64);
            for row in table.rows_iter() {
                rows += 1;
                long += u64::from(matches!(row[4], beas::common::Value::Int(d) if d > 1_800));
            }
            black_box(long);
            begin.elapsed().as_nanos() as f64 / rows.max(1) as f64
        })
        .collect();
    median(&rates)
}

impl Pass<'_> {
    /// Write the spans to `out`, add the per-layer metrics to `metrics`, and
    /// hand back the tally of the submissions the pass made.
    pub fn finish(self, out: &Path, metrics: &mut Metrics) -> Result<Tally, String> {
        if let Some(dir) = out.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(out, self.tracer.to_jsonl())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        report(&self.tracer.spans, metrics);
        metrics.set_some(
            "storage.shared_segment_frac",
            median(&self.shared_segment_fracs),
        );
        metrics.set_some(
            "storage.scan_ns_per_row",
            scan_ns_per_row(self.input.service),
        );
        Ok(self.tally)
    }
}

/// Per-layer metrics from the spans.
fn report(spans: &[Span], metrics: &mut Metrics) {
    let selfs = self_times_ns(spans);
    let dur = |name: &str| median_dur_us(spans, name);
    let own = |name: &str| median_self_us(spans, &selfs, name);

    metrics.set_some("sql.parse_us", dur("sql.parse"));
    metrics.set_some("sql.bind_us", dur("sql.bind"));
    metrics.set_some("core.graph_us", dur("core.graph"));
    metrics.set_some("core.check_us", dur("core.check"));
    metrics.set_some("core.plan_us", dur("core.plan"));
    metrics.set_some("core.prepare_miss_us", dur("core.prepare_miss"));
    metrics.set_some("core.prepare_hit_us", dur("core.prepare_hit"));
    metrics.set_some("service.pin_us", dur("service.pin"));
    metrics.set_some("service.admit_us", dur("service.admit"));
    metrics.set_some("service.overhead_us", own("service.execute"));

    // Bounded execution: `execute_prepared` spans that have a fetch under
    // them.  Their self time is what runs after the fetch: finalization.
    let bounded_runs: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == "core.fetch")
        .filter_map(|s| s.parent)
        .collect();
    let finalize: Vec<f64> = bounded_runs
        .iter()
        .map(|id| selfs[*id as usize] as f64 / 1e3)
        .collect();
    metrics.set_some("core.finalize_us", median(&finalize));
    metrics.set_some("core.fetch_us", dur("core.fetch"));
    metrics.set_some("core.fetch_ns_per_tuple", ns_per_count(spans, "core.fetch"));
    metrics.set_some(
        "storage.index_fetch_ns",
        ns_per_count(spans, "storage.index_fetch_x32"),
    );
    let vs_bound: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.fetch")
        .filter_map(|fetch| {
            let bound = spans[fetch.parent? as usize].count;
            (bound > 0).then(|| fetch.count as f64 / bound as f64)
        })
        .collect();
    metrics.set_some("core.tuples_vs_bound", median(&vs_bound));
    metrics.set_some("core.approximate_us", dur("core.approximate"));

    metrics.set_some("engine.plan_us", dur("engine.plan"));
    metrics.set_some("engine.exec_us", own("engine.run_bound"));
    metrics.set_some(
        "engine.ns_per_tuple",
        ns_per_count(spans, "engine.run_bound"),
    );
    metrics.set_some("storage.stats_us", dur("storage.stats"));
    metrics.set_some("core.partial_us", own("core.partial"));

    metrics.set_some("access.insert_batch_us", dur("access.insert_batch"));
    metrics.set_some("access.delete_batch_us", dur("access.delete_batch"));
    metrics.set_some("core.fork_us", dur("core.fork"));
    metrics.set_some("service.publish_us", own("service.insert_rows"));

    // The traced total of an answered read against the untraced median.
    let answering: std::collections::HashSet<u32> = spans
        .iter()
        .filter(|s| matches!(s.name, "core.execute_prepared" | "core.approximate"))
        .filter_map(|s| s.parent)
        .collect();
    let answered: Vec<f64> = spans
        .iter()
        .filter(|s| answering.contains(&s.id))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    if let (Some(traced), Some(untraced)) = (median(&answered), metrics.get("read_p50_us")) {
        metrics.set("bench.traced_op_us", traced);
        metrics.set("service.contention_us", untraced - traced);
        if untraced > 0.0 {
            metrics.set("bench.trace_overhead_frac", traced / untraced - 1.0);
        }
    }
}
