//! Trace-neutrality differential harness: observability must never change
//! an answer.  The same query suite — covered (bounded fetch), uncovered
//! (conventional), malformed SQL, and a quota trip — runs under
//! [`TraceLevel::Off`], [`TraceLevel::Counters`] and [`TraceLevel::Timing`]
//! on both engines (the BEAS bounded executor and the baseline engine in
//! row-at-a-time and vectorized small-morsel configurations), and every
//! observable output is compared for bit-exact equality: rows (as Debug
//! strings, distinguishing `Int(1)` from `Float(1.0)`), error kind *and*
//! message, `tuples_accessed`, and the quota charge.  Timing may only ever
//! change how much the system *records*, never what it *computes*.

use beas::engine::ParallelConfig;
use beas::prelude::*;

fn covered_query() -> String {
    let (btype, region, pid, date) = beas::tlc::default_params();
    beas::tlc::example2_query(btype, region, pid, date)
}

const UNCOVERED: &str = "SELECT call.region, COUNT(*) AS n FROM call \
     WHERE call.duration > 10 \
     GROUP BY call.region ORDER BY call.region";

/// Everything a level sweep is allowed to observe, rendered to strings so
/// a mismatch diff reads directly.
fn observe(system: &BeasSystem) -> Vec<String> {
    let mut out = Vec::new();
    let covered = covered_query();

    // BEAS bounded path.
    let bounded = system.execute_sql(&covered).unwrap();
    out.push(format!(
        "bounded: rows={:?} mode={:?} tuples={} bound={:?}",
        bounded.rows, bounded.mode, bounded.tuples_accessed, bounded.deduced_bound
    ));

    // BEAS conventional fallback.
    let conventional = system.execute_sql(UNCOVERED).unwrap();
    out.push(format!(
        "conventional: rows={:?} mode={:?} tuples={}",
        conventional.rows, conventional.mode, conventional.tuples_accessed
    ));

    // Errors must carry the same kind and message at every level.
    let err = system
        .execute_sql("SELECT nope FROM nothing")
        .expect_err("unknown table");
    out.push(format!("error: kind={} msg={err}", err.kind()));

    // Quota trips must charge identically before terminating (the bounded
    // run for this query actually fetches 4 tuples, so a 2-tuple cap trips
    // mid-plan).
    let tracker = ResourceQuota::unlimited().with_max_tuples(2).tracker();
    let tripped = system
        .execute_sql_with_quota(&covered, Some(&tracker))
        .expect_err("2 tuples cannot cover the bounded plan");
    out.push(format!(
        "quota: kind={} msg={tripped} used={}",
        tripped.kind(),
        tracker.tuples_used()
    ));

    // Baseline engine, row pipeline and vectorized 16-row morsels.
    let row_engine = Engine::default().with_exec_profile(ExecProfile::RowAtATime);
    let morsel_engine = Engine::default()
        .with_exec_profile(ExecProfile::Vectorized)
        .with_parallelism(ParallelConfig { morsel_rows: 16 });
    for (name, engine) in [("row", row_engine), ("morsel", morsel_engine)] {
        for (label, sql) in [("covered", covered.as_str()), ("uncovered", UNCOVERED)] {
            let result = engine.run(system.database(), sql).unwrap();
            out.push(format!(
                "{name}/{label}: rows={:?} tuples={}",
                result.rows,
                result.metrics.total_tuples_accessed()
            ));
        }
    }

    // A service submission: the admission decision and the quota spend the
    // trace reports must not depend on the trace level.
    let service = QueryService::new(
        BeasSystem::with_schema(beas::tlc::tiny_database(60), beas::tlc::tlc_access_schema())
            .unwrap(),
    );
    let session = service.session(ResourceQuota::unlimited().with_max_tuples(50_000_000));
    let outcome = session.execute(&covered).unwrap();
    out.push(format!(
        "service: decision={:?} tuples_used={} rows={:?}",
        outcome.decision,
        outcome.trace.tuples_used,
        outcome.answer.map(|a| a.rows)
    ));

    out
}

#[test]
fn answers_are_bit_identical_across_trace_levels() {
    let system =
        BeasSystem::with_schema(beas::tlc::tiny_database(60), beas::tlc::tlc_access_schema())
            .unwrap();
    let previous = set_trace_level(TraceLevel::Off);
    let off = observe(&system);
    set_trace_level(TraceLevel::Counters);
    let counters = observe(&system);
    set_trace_level(TraceLevel::Timing);
    let timing = observe(&system);
    set_trace_level(previous);
    assert_eq!(off, counters, "Counters must not perturb any answer");
    assert_eq!(off, timing, "Timing must not perturb any answer");
}

/// Collect every label in the analyzed tree, depth-first, matching the
/// indentation-stripped shape of `LogicalPlan::explain`.
fn labels(node: &beas::engine::AnalyzeNode, out: &mut Vec<String>) {
    out.push(node.label.clone());
    for child in &node.children {
        labels(child, out);
    }
}

#[test]
fn explain_analyze_covers_vectorized_morsel_runs() {
    let db = beas::tlc::tiny_database(60);
    // Columnar kernels over 16-row morsel batches.
    let analysis = Engine::default()
        .with_exec_profile(ExecProfile::Vectorized)
        .with_parallelism(ParallelConfig { morsel_rows: 16 })
        .explain_analyze(&db, UNCOVERED)
        .unwrap();

    // The analyzed tree has exactly the shape `explain` reports.
    let mut tree_labels = Vec::new();
    labels(&analysis.tree, &mut tree_labels);
    let plan_labels: Vec<String> = analysis
        .plan_text
        .lines()
        .map(|l| l.trim_start().to_string())
        .collect();
    assert_eq!(tree_labels, plan_labels);
    let total: u64 = analysis.result.metrics.total_tuples_accessed();
    assert!(total > 0, "a scan must report tuples accessed");

    // The physical-path annotation surfaces in the rendered breakdown.
    let rendered = analysis.tree.render();
    assert!(rendered.contains("+ Vectorized(batches="), "{rendered}");
}
