//! Property-based integration tests: on randomly generated conforming
//! databases and randomly parameterized covered queries, bounded evaluation
//! agrees with the conventional engine, the deduced bound is a true upper
//! bound on actual data access, and approximation stays within its budget.
//! Incremental index maintenance against a rebuild is
//! `tests/maintenance_contract.rs`'s.

use beas::prelude::*;
use proptest::prelude::*;

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
    rows.into_iter()
        .filter(|r| seen.insert(r.clone()))
        .collect()
}

fn build_system(seed: u64) -> BeasSystem {
    let config = beas::tlc::TlcConfig {
        scale_factor: 1,
        seed,
    };
    let db = beas::tlc::generate(&config).unwrap();
    BeasSystem::with_schema(db, beas::tlc::tlc_access_schema()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Bounded evaluation computes exactly the baseline's (distinct) answers
    /// for Example 2-style queries under random parameters and random data.
    #[test]
    fn bounded_matches_baseline_on_random_parameters(
        seed in 0u64..4,
        type_idx in 0usize..6,
        region_idx in 0usize..5,
        pid in 1i64..50,
        day in 0u8..28,
    ) {
        let system = build_system(seed);
        let btype = beas::tlc::generator::vocab::BUSINESS_TYPES[type_idx];
        let region = beas::tlc::generator::vocab::REGIONS[region_idx];
        let date = beas::tlc::generator::date(day);
        let sql = beas::tlc::example2_query(btype, region, pid, &date);

        let report = system.check(&sql).unwrap();
        prop_assert!(report.covered);
        let outcome = system.execute_sql(&sql).unwrap();
        let baseline = Engine::default().run(system.database(), &sql).unwrap();
        prop_assert_eq!(sorted(outcome.rows.clone()), sorted(distinct(baseline.rows)));
        // deduced bound is a true upper bound on the data actually accessed
        prop_assert!(outcome.tuples_accessed <= report.deduced_bound.unwrap());
    }

    /// The same equivalence holds for single-relation point queries through
    /// ψ1 with random keys, including keys with no matching data.
    #[test]
    fn point_lookups_match_baseline(
        seed in 0u64..3,
        customer in 0usize..400,
        day in 0u8..28,
    ) {
        let system = build_system(seed);
        let sql = format!(
            "SELECT DISTINCT recnum, region, duration FROM call \
             WHERE pnum = '{}' AND date = '{}'",
            beas::tlc::generator::pnum(customer),
            beas::tlc::generator::date(day)
        );
        let outcome = system.execute_sql(&sql).unwrap();
        prop_assert!(outcome.bounded);
        let baseline = Engine::default().run(system.database(), &sql).unwrap();
        prop_assert_eq!(sorted(outcome.rows), sorted(distinct(baseline.rows)));
    }

    /// Approximation under a random budget never exceeds the budget, reports
    /// a coverage in [0, 1], and only returns genuine answers.
    #[test]
    fn approximation_is_sound_and_budgeted(
        budget in 1u64..5_000,
        type_idx in 0usize..6,
    ) {
        let system = build_system(1);
        let btype = beas::tlc::generator::vocab::BUSINESS_TYPES[type_idx];
        let sql = format!(
            "SELECT DISTINCT c.recnum FROM business b, call c \
             WHERE b.type = '{btype}' AND b.region = 'east' \
             AND b.pnum = c.pnum AND c.date = '2016-07-04'"
        );
        let approx = system.approximate(&sql, budget).unwrap();
        prop_assert!(approx.tuples_accessed <= budget);
        prop_assert!((0.0..=1.0).contains(&approx.coverage));
        let exact: std::collections::HashSet<Row> =
            system.execute_sql(&sql).unwrap().rows.into_iter().collect();
        for row in &approx.rows {
            prop_assert!(exact.contains(row));
        }
    }
}
