//! Guards the facade against re-export collisions: `beas_core` and
//! `beas_engine` both define `plan`, `planner` and `executor` modules, so a
//! careless glob re-export in the facade would make `use beas::prelude::*`
//! ambiguous.  This test glob-imports the prelude and then *uses* items from
//! both the bounded and the conventional layer by their bare names — if any
//! name were exported twice the file would fail to compile.

use beas::prelude::*;

/// Referencing the mirrored module families through their aliased paths must
/// name distinct types.
fn bounded_plan_of(system: &BeasSystem, sql: &str) -> beas::bounded_plan::BoundedPlan {
    system.check(sql).unwrap().plan.expect("query is covered")
}

#[test]
fn prelude_glob_reaches_both_layers_unambiguously() {
    let db = beas::tlc::tiny_database(120);
    let system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema()).unwrap();

    let (btype, region, pid, date) = beas::tlc::default_params();
    let q1 = beas::tlc::example2_query(btype, region, pid, date);

    // Bounded layer, by bare prelude names.
    let report: CheckReport = system.check(&q1).unwrap();
    assert!(report.covered);
    let plan: BoundedPlan = bounded_plan_of(&system, &q1);
    assert!(!plan.fetches.is_empty());
    let outcome: ExecutionOutcome = system.execute_sql(&q1).unwrap();
    assert!(outcome.bounded);

    // Conventional layer, by bare prelude names, over the same database.
    let engine = Engine::default();
    let result: QueryResult = engine.run(system.database(), &q1).unwrap();
    let _metrics: &ExecutionMetrics = &result.metrics;
    assert!(!engine.explain(system.database(), &q1).unwrap().is_empty());

    // Values/rows from `beas_common` resolve too.
    let v = Value::str("east");
    assert_eq!(v.render(), "east");
    let _d: Date = "2016-07-04".parse().unwrap();
}

#[test]
fn aliased_module_families_are_distinct() {
    // The aliases must point at the two different layers, not the same one:
    // the bounded plan type lives only under `bounded_plan`, the logical plan
    // type only under `engine_plan`.
    fn assert_types_exist(
        _: Option<beas::bounded_plan::BoundedPlan>,
        _: Option<beas::bounded_plan::PlannedFetch>,
        _: Option<beas::engine_plan::LogicalPlan>,
    ) {
    }
    assert_types_exist(None, None, None);
}
