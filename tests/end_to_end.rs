//! Cross-crate integration tests: SQL in, answers out, through both the
//! conventional engine and BEAS, on generated TLC data.

use beas::prelude::*;

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let o = x.total_cmp(y);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

fn distinct(rows: Vec<Row>) -> Vec<Row> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for r in rows {
        if seen.insert(r.clone()) {
            out.push(r);
        }
    }
    out
}

fn tlc_system(scale: u32) -> BeasSystem {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(scale)).unwrap();
    BeasSystem::with_schema(db, beas::tlc::tlc_access_schema()).unwrap()
}

#[test]
fn all_eleven_tlc_queries_run_and_match_the_baseline() {
    let system = tlc_system(2);
    let engine = Engine::default();
    for q in beas::tlc::all_queries() {
        let report = system.check(&q.sql).unwrap();
        assert_eq!(
            report.covered, q.expect_covered,
            "{}: coverage expectation mismatch ({:?})",
            q.id, report.coverage.reasons
        );
        let outcome = system.execute_sql(&q.sql).unwrap();
        let baseline = engine.run(system.database(), &q.sql).unwrap();
        // BEAS computes set-semantics answers; the benchmark queries are
        // written with DISTINCT / distinct-safe aggregates so the comparison
        // is exact, except that we normalize row order.
        assert_eq!(
            sorted(outcome.rows.clone()),
            sorted(distinct(baseline.rows.clone())),
            "{}: answers differ",
            q.id
        );
        if report.covered {
            assert!(outcome.bounded, "{} should run bounded", q.id);
            assert!(
                outcome.tuples_accessed <= report.deduced_bound.unwrap(),
                "{}: accessed {} tuples, deduced bound {}",
                q.id,
                outcome.tuples_accessed,
                report.deduced_bound.unwrap()
            );
            assert!(
                outcome.tuples_accessed < baseline.metrics.total_tuples_accessed(),
                "{}: bounded run should touch less data than the full scans",
                q.id
            );
        }
    }
}

#[test]
fn more_than_ninety_percent_of_the_workload_is_covered() {
    let system = tlc_system(1);
    let queries = beas::tlc::all_queries();
    let covered = queries
        .iter()
        .filter(|q| system.check(&q.sql).unwrap().covered)
        .count();
    assert!(covered * 100 / queries.len() >= 90);
}

#[test]
fn bounded_access_is_scale_independent_while_baseline_grows() {
    let (btype, region, pid, date) = beas::tlc::default_params();
    let q1 = beas::tlc::example2_query(btype, region, pid, date);
    let mut beas_access = Vec::new();
    let mut baseline_access = Vec::new();
    for scale in [1u32, 4] {
        let system = tlc_system(scale);
        let outcome = system.execute_sql(&q1).unwrap();
        let baseline = Engine::default().run(system.database(), &q1).unwrap();
        beas_access.push(outcome.tuples_accessed);
        baseline_access.push(baseline.metrics.total_tuples_accessed());
    }
    // the baseline scans ~4x more data at 4x scale…
    assert!(baseline_access[1] >= baseline_access[0] * 3);
    // …while the bounded plan's data access stays within the same order
    assert!(beas_access[1] <= beas_access[0] * 2 + 16);
}

#[test]
fn budget_checks_and_approximation_work_end_to_end() {
    let system = tlc_system(1);
    let (btype, region, pid, date) = beas::tlc::default_params();
    let q1 = beas::tlc::example2_query(btype, region, pid, date);
    let report = system.check(&q1).unwrap();
    let bound = report.deduced_bound.unwrap();
    assert!(system.can_answer_within(&q1, bound).unwrap());
    assert!(!system.can_answer_within(&q1, 10).unwrap());
    let exact = system.execute_sql(&q1).unwrap();
    let approx = system.approximate(&q1, bound).unwrap();
    assert_eq!(sorted(approx.rows.clone()), sorted(exact.rows.clone()));
    assert!((approx.coverage - 1.0).abs() < 1e-9);
    let tight = system.approximate(&q1, 50).unwrap();
    assert!(tight.tuples_accessed <= 50);
    assert!(tight.coverage <= 1.0);
}

/// Approximation is the exact plan under a tuple budget: over the ten
/// covered TLC templates and budgets from the deduced bound down to one
/// tuple, it never overruns the budget, never invents an answer, and at the
/// full bound it *is* the exact answer, row for row and in order.
#[test]
fn approximation_of_every_covered_template_is_sound_and_exact_at_the_bound() {
    let system = tlc_system(2);
    for q in beas::tlc::all_queries().iter().filter(|q| q.expect_covered) {
        let bound = system.check(&q.sql).unwrap().deduced_bound.unwrap();
        let exact = system.execute_sql(&q.sql).unwrap();
        let aggregate = q.sql.contains("COUNT(");
        for budget in [bound, (bound / 2).max(1), 12, 1] {
            let approx = system.approximate(&q.sql, budget).unwrap();
            let what = format!("{} under budget {budget}", q.id);
            assert!(approx.tuples_accessed <= budget, "{what}: over budget");
            assert!((0.0..=1.0).contains(&approx.coverage), "{what}");
            if budget >= bound {
                assert_eq!(approx.rows, exact.rows, "{what}: not the exact answer");
                assert_eq!(approx.coverage, 1.0, "{what}");
                assert_eq!(approx.tuples_accessed, exact.tuples_accessed, "{what}");
            }
            for row in &approx.rows {
                if aggregate {
                    // groups are genuine and a COUNT(DISTINCT ..) over part
                    // of the context is a lower bound on the exact count
                    let (count, group) = row.split_last().unwrap();
                    let full = exact.rows.iter().find(|r| r.starts_with(group));
                    let full = full.unwrap_or_else(|| panic!("{what}: invented group {row:?}"));
                    assert!(count.total_cmp(full.last().unwrap()).is_le(), "{what}");
                } else {
                    assert!(exact.rows.contains(row), "{what}: invented row {row:?}");
                }
            }
        }
    }
}

#[test]
fn discovered_schema_supports_bounded_evaluation() {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(1)).unwrap();
    let system = BeasSystem::from_discovery(
        db,
        &beas::tlc::workload(),
        &beas::core::DiscoveryConfig::default(),
    )
    .unwrap();
    assert!(!system.access_schema().is_empty());
    let covered = beas::tlc::all_queries()
        .iter()
        .filter(|q| system.check(&q.sql).unwrap().covered)
        .count();
    // the discovered schema covers a solid majority of the workload
    assert!(covered >= 6, "only {covered} of 11 covered");
    // and the covered queries still return baseline-identical answers
    let engine = Engine::default();
    for q in beas::tlc::all_queries() {
        if system.check(&q.sql).unwrap().covered {
            let outcome = system.execute_sql(&q.sql).unwrap();
            let baseline = engine.run(system.database(), &q.sql).unwrap();
            assert_eq!(
                sorted(outcome.rows),
                sorted(distinct(baseline.rows)),
                "{}",
                q.id
            );
        }
    }
}

#[test]
fn conformance_violations_are_detected_on_tlc_data() {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(1)).unwrap();
    // An absurdly tight bound must be reported as a violation.
    let mut schema = beas::tlc::tlc_access_schema();
    let tight = beas::access::AccessConstraint::new("call", &["region"], &["pnum"], 1).unwrap();
    schema.add(tight.clone());
    let report = beas::access::check_conformance(&db, &schema).unwrap();
    assert!(!report.conforms());
    // and a system over that data is refused, naming the constraint
    let err = BeasSystem::with_schema(db, schema).unwrap_err();
    assert_eq!(err.kind(), "conformance");
    assert!(err.to_string().contains(&tight.to_string()), "{err}");
}

/// Bounded plans that were only right for some parameter vectors: each
/// statement below, next to a vector its old plan was right for, must answer
/// like the conventional engine — exactly, and as an approximation under a
/// budget that covers its deduced bound.  Returns how many stayed covered.
fn assert_bounded_answers_match_the_engine(system: &BeasSystem, statements: &[String]) -> usize {
    let engine = Engine::default();
    let mut covered = 0;
    for sql in statements {
        let expected = sorted(distinct(engine.run(system.database(), sql).unwrap().rows));
        let exact = system.execute_sql(sql).unwrap();
        assert_eq!(sorted(exact.rows), expected, "{sql}");
        if let Some(bound) = exact.deduced_bound {
            let approx = system.approximate(sql, bound).unwrap();
            assert_eq!(sorted(approx.rows), expected, "approximate: {sql}");
            covered += 1;
        }
    }
    covered
}

/// Two subscribers with calls, and the day of the first one's first call,
/// as quoted literals.
fn two_callers(system: &BeasSystem) -> (String, String, String) {
    let call = system.database().table("call").unwrap();
    let first = call.row(0).unwrap().clone();
    let other = call
        .rows_iter()
        .find(|r| r[0] != first[0])
        .map(|r| r[0].to_string())
        .unwrap();
    (first[0].to_string(), other, format!("'{}'", first[2]))
}

#[test]
fn a_second_constant_on_an_attribute_does_not_replace_the_first() {
    let system = tlc_system(2);
    let statements: Vec<String> = [("nowhere", "east"), ("east", "east"), ("east", "nowhere")]
        .iter()
        .map(|(a, b)| {
            format!(
                "SELECT DISTINCT business.pnum FROM business WHERE business.region = '{a}' \
                 AND business.type = 'bank' AND business.region = '{b}'"
            )
        })
        .collect();
    assert_eq!(
        assert_bounded_answers_match_the_engine(&system, &statements),
        3
    );
}

#[test]
fn a_second_in_list_on_an_attribute_does_not_replace_the_first() {
    let system = tlc_system(2);
    let (pnum, other, date) = two_callers(&system);
    let statements: Vec<String> = [(&other, &pnum), (&pnum, &pnum), (&pnum, &other)]
        .iter()
        .map(|(a, b)| {
            format!(
                "SELECT DISTINCT recnum FROM call WHERE call.pnum IN ({a}) \
                 AND call.pnum IN ({b}, '0') AND date = {date}"
            )
        })
        .collect();
    assert_eq!(
        assert_bounded_answers_match_the_engine(&system, &statements),
        3
    );
}

#[test]
fn a_join_is_checked_when_no_lookup_enforces_it() {
    let system = tlc_system(2);
    let (pnum, other, _) = two_callers(&system);
    let statements = [
        // both ends keyed by a constant of their own
        format!(
            "SELECT DISTINCT c.name, d.brand FROM customer c, device d \
             WHERE c.pnum = d.pnum AND c.pnum = {pnum} AND d.pnum = {other}"
        ),
        format!(
            "SELECT DISTINCT c.name, d.brand FROM customer c, device d \
             WHERE c.pnum = d.pnum AND c.pnum = {pnum} AND d.pnum = {pnum}"
        ),
        // the second end keyed by the first end's IN-list
        format!(
            "SELECT DISTINCT c.pnum, d.pnum FROM customer c, device d \
             WHERE c.pnum IN ({pnum}, {other}) AND c.pnum = d.pnum"
        ),
        // two fetched attributes equated with each other
        format!(
            "SELECT DISTINCT c.pnum FROM customer c, device d \
             WHERE c.pnum = {pnum} AND d.pnum = {pnum} AND c.name = d.brand"
        ),
        format!(
            "SELECT DISTINCT c.pnum FROM customer c, device d \
             WHERE c.pnum = {pnum} AND d.pnum = {other} AND c.name <> d.brand"
        ),
    ];
    assert_eq!(
        assert_bounded_answers_match_the_engine(&system, &statements),
        5
    );
}

#[test]
fn a_constant_on_an_attribute_no_constraint_fetches_is_not_answered_boundedly() {
    // `call_type` is in no access constraint: a bounded plan has nothing to
    // check the predicate against, and used to answer as if it were absent.
    let system = tlc_system(2);
    let (pnum, _, date) = two_callers(&system);
    let held = system.database().table("call").unwrap().row(0).unwrap()[7].to_string();
    let statements: Vec<String> = ["'nope'", held.as_str()]
        .iter()
        .map(|call_type| {
            format!(
                "SELECT DISTINCT recnum FROM call WHERE pnum = {pnum} AND date = {date} \
                 AND call_type = {call_type}"
            )
        })
        .collect();
    assert_eq!(
        assert_bounded_answers_match_the_engine(&system, &statements),
        0
    );
    assert!(!system.check(&statements[0]).unwrap().covered);
}

#[test]
fn a_key_alternative_given_twice_is_one_key() {
    // `IN ('a', 'a')`, and `IN (5, 5.0)` on an integer key (equal once cast
    // and canonical), name one lookup key.  Taken as two they give the
    // context row the same bucket twice; the fetch step does not
    // deduplicate its output, so every joined row would be there twice.
    let system = tlc_system(2);
    let (pnum, _, date) = two_callers(&system);
    let pid = system
        .database()
        .table("plan_catalog")
        .unwrap()
        .row(0)
        .unwrap()[0]
        .to_string();
    let statements = [
        (
            format!("SELECT recnum, region FROM call WHERE pnum = {pnum} AND date = {date}"),
            format!(
                "SELECT recnum, region FROM call WHERE pnum IN ({pnum}, {pnum}) AND date = {date}"
            ),
        ),
        (
            format!("SELECT plan_name, tier FROM plan_catalog WHERE pid = {pid}"),
            format!("SELECT plan_name, tier FROM plan_catalog WHERE pid IN ({pid}, {pid}.0)"),
        ),
    ];
    let engine = Engine::default();
    for (once, twice) in &statements {
        let expected = sorted(distinct(engine.run(system.database(), twice).unwrap().rows));
        assert!(!expected.is_empty(), "{twice}");
        // what the one key fetches
        let single = system.execute_sql(once).unwrap();
        let exact = system.execute_sql(twice).unwrap();
        let approx = system
            .approximate(twice, exact.deduced_bound.unwrap())
            .unwrap();
        for (what, rows, tuples, metrics) in [
            ("exact", exact.rows, exact.tuples_accessed, exact.metrics),
            (
                "approximate",
                approx.rows,
                approx.tuples_accessed,
                approx.metrics,
            ),
        ] {
            assert_eq!(sorted(rows), expected, "{what}: {twice}");
            assert_eq!(tuples, single.tuples_accessed, "{what}: {twice}");
            // the context after the fetch step: each joined row once
            assert_eq!(metrics.operators[0].rows_out, tuples, "{what}: {twice}");
        }
    }
}
