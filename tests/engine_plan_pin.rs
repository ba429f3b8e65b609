//! Pins the plans the conventional engine produces for every query the
//! benchmark workloads can route to it: the eleven TLC queries and the nine
//! uncovered shapes of `beas_benchmark` (U1-U7, S1-S2) with fixed literals,
//! at TLC scale 1.  `Engine::default()` is the engine `BeasSystem::new`
//! falls back to, so any change to its join order, pushdown or join
//! algorithm shows up here as a changed plan text.

use beas::engine::Engine;
use beas::storage::Database;

/// `(query id, EXPLAIN text)` for the TLC queries at their default
/// parameters (`beas::tlc::all_queries()`).
const TLC: &[(&str, &str)] = &[
    (
        "Q1",
        r#"
Distinct
  Project(#19 AS region)
    HashJoin(#16 = right.#0)
      HashJoin(#0 = right.#0)
        Filter(((((#4 = 2016) AND (#2 <= 7)) AND (#3 >= 7)) AND (#1 = 7)))
          SeqScan(package)
        Filter((#2 = '2016-07-04'))
          SeqScan(call)
      Filter(((#1 = 'bank') AND (#2 = 'east')))
        SeqScan(business)
"#,
    ),
    (
        "Q2",
        r#"
Distinct
  Project(#1 AS recnum, #3 AS region)
    Filter(((#0 = '13800000042') AND (#2 = '2016-07-04')))
      SeqScan(call)
"#,
    ),
    (
        "Q3",
        r#"
Distinct
  Project(#33 AS city, #66 AS brand, #74 AS five_g)
    HashJoin(#28 = right.#0)
      HashJoin(#0 = right.#0)
        Filter(((#1 = 'bank') AND (#2 = 'east')))
          SeqScan(business AS b)
        SeqScan(customer AS c)
      SeqScan(device AS d)
"#,
    ),
    (
        "Q4",
        r#"
Project(#0 AS overdue_vips)
  HashAggregate(group=[], aggs=[COUNT(DISTINCT c.pnum)])
    HashJoin(#0 = right.#0)
      Filter(((#4 = 'east') AND (#18 = 'vip')))
        SeqScan(customer AS c)
      Filter(((#1 = 2016) AND (#10 = false)))
        SeqScan(billing AS bl)
"#,
    ),
    (
        "Q5",
        r#"
Sort(#1 DESC)
  Project(#0 AS sms_type, #1 AS receivers)
    HashAggregate(group=[#33], aggs=[COUNT(DISTINCT s.recnum)])
      HashJoin(#0 = right.#0)
        Filter(((#1 = 'hospital') AND (#2 = 'east')))
          SeqScan(business AS b)
        Filter((#2 = '2016-07-04'))
          SeqScan(sms AS s)
"#,
    ),
    (
        "Q6",
        r#"
Sort(#1 DESC, #0)
  Project(#0 AS app_category, #1 AS users)
    HashAggregate(group=[#36], aggs=[COUNT(DISTINCT u.pnum)])
      HashJoin(#0 = right.#0)
        Filter(((#1 = 'bank') AND (#2 = 'east')))
          SeqScan(business AS b)
        Filter((#1 = '2016-07-04'))
          SeqScan(data_usage AS u)
"#,
    ),
    (
        "Q7",
        r#"
Distinct
  Project(#0 AS pnum, #22 AS technology, #61 AS province)
    HashJoin(#17 = right.#0)
      HashJoin(#8 = right.#0)
        Filter(((#8 = 'CELL00017') AND (#2 = '2016-07-04')))
          SeqScan(call)
        SeqScan(cell_tower AS t)
      SeqScan(region_info AS r)
"#,
    ),
    (
        "Q8",
        r#"
Distinct
  Project(#0 AS pnum, #30 AS category, #31 AS severity)
    HashJoin(#0 = right.#0)
      Filter(((#1 = 'bank') AND (#2 = 'east')))
        SeqScan(business AS b)
      Filter((((#1 = '2016-07-04') AND (#3 >= 3)) AND (#6 = false)))
        SeqScan(complaint AS k)
"#,
    ),
    (
        "Q9",
        r#"
Distinct
  Project(#45 AS plan_name, #61 AS tier)
    HashJoin(#29 = right.#0)
      HashJoin(#0 = right.#0)
        Filter(((#1 = 'bank') AND (#2 = 'east')))
          SeqScan(business AS b)
        Filter((#4 = 2016))
          SeqScan(package AS p)
      SeqScan(plan_catalog AS pc)
"#,
    ),
    (
        "Q10",
        r#"
Sort(#1 DESC, #0)
  Project(#0 AS brand, #1 AS owners)
    HashAggregate(group=[#38], aggs=[COUNT(DISTINCT d.pnum)])
      HashJoin(#0 = right.#0)
        Filter(((#4 = 'east') AND (#18 = 'vip')))
          SeqScan(customer AS c)
        Filter((#10 = true))
          SeqScan(device AS d)
"#,
    ),
    (
        "Q11",
        r#"
Sort(#0)
  Project(#0 AS region, #1 AS spend)
    HashAggregate(group=[#31], aggs=[SUM(call.cost)])
      HashJoin(#0 = right.#0)
        Filter(((#1 = 'bank') AND (#2 = 'east')))
          SeqScan(business AS b)
        Filter((#2 = '2016-07-04'))
          SeqScan(call)
"#,
    ),
];

/// `(shape id, SQL, EXPLAIN text)` for the benchmark's uncovered shapes,
/// copied from `beas_benchmark/src/script.rs` with one fixed parameter set.
const UNCOVERED: &[(&str, &str, &str)] = &[
    (
        "U1",
        "SELECT pnum, recnum, duration FROM call WHERE duration >= 3400 AND call_type = 'local'",
        r#"
Project(#0 AS pnum, #1 AS recnum, #4 AS duration)
  Filter(((#4 >= 3400) AND (#7 = 'local')))
    SeqScan(call)
"#,
    ),
    (
        "U2",
        "SELECT pnum, recnum, cost FROM call WHERE region = 'east' AND duration > 3200 LIMIT 20",
        r#"
Limit(20)
  Project(#0 AS pnum, #1 AS recnum, #11 AS cost)
    Filter(((#3 = 'east') AND (#4 > 3200)))
      SeqScan(call)
"#,
    ),
    (
        "U3",
        "SELECT c.city, b.name, b.vip_level FROM customer c, business b WHERE c.pnum = b.pnum AND c.credit_score >= 500 AND b.employees >= 1000",
        r#"
Project(#33 AS city, #3 AS name, #9 AS vip_level)
  HashJoin(#0 = right.#0)
    Filter((#6 >= 1000))
      SeqScan(business AS b)
    Filter((#7 >= 500))
      SeqScan(customer AS c)
"#,
    ),
    (
        "U4",
        "SELECT DISTINCT region, call_type, network_type FROM call WHERE duration > 1000",
        r#"
Distinct
  Project(#3 AS region, #7 AS call_type, #14 AS network_type)
    Filter((#4 > 1000))
      SeqScan(call)
"#,
    ),
    (
        "U5",
        "SELECT region, sms_type, COUNT(*) AS n FROM sms WHERE length > 100 GROUP BY region, sms_type",
        r#"
Project(#0 AS region, #1 AS sms_type, #2 AS n)
  HashAggregate(group=[#3, #5], aggs=[COUNT(*)])
    Filter((#4 > 100))
      SeqScan(sms)
"#,
    ),
    (
        "U6",
        "SELECT pnum, recnum, duration FROM call WHERE date = '2016-07-03' ORDER BY duration DESC, pnum, recnum LIMIT 10",
        r#"
Limit(10)
  Sort(#2 DESC, #0, #1)
    Project(#0 AS pnum, #1 AS recnum, #4 AS duration)
      Filter((#2 = '2016-07-03'))
        SeqScan(call)
"#,
    ),
    (
        "U7",
        "SELECT call.region, SUM(call.cost) AS spend FROM business b, call WHERE b.type = 'retail' AND b.region = 'west' AND b.pnum = call.pnum AND call.date = '2016-07-06' GROUP BY call.region ORDER BY call.region",
        r#"
Sort(#0)
  Project(#0 AS region, #1 AS spend)
    HashAggregate(group=[#31], aggs=[SUM(call.cost)])
      HashJoin(#0 = right.#0)
        Filter(((#1 = 'retail') AND (#2 = 'west')))
          SeqScan(business AS b)
        Filter((#2 = '2016-07-06'))
          SeqScan(call)
"#,
    ),
    (
        "S1",
        "SELECT cell_id, city, capacity FROM cell_tower WHERE technology = '5g' AND capacity >= 1000",
        r#"
Project(#0 AS cell_id, #2 AS city, #5 AS capacity)
  Filter(((#6 = '5g') AND (#5 >= 1000)))
    SeqScan(cell_tower)
"#,
    ),
    (
        "S2",
        "SELECT plan_name, monthly_fee FROM plan_catalog WHERE tier = 'plus' AND data_gb >= 40",
        r#"
Project(#1 AS plan_name, #2 AS monthly_fee)
  Filter(((#17 = 'plus') AND (#3 >= 40)))
    SeqScan(plan_catalog)
"#,
    ),
];

fn tlc_scale_1() -> Database {
    beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(1)).unwrap()
}

fn assert_plan(db: &Database, id: &str, sql: &str, expected: &str) {
    let actual = Engine::default().explain(db, sql).unwrap();
    assert_eq!(
        actual.trim_end(),
        expected.trim(),
        "{id}: the default engine's plan changed\n{sql}"
    );
}

#[test]
fn tlc_queries_plan_as_pinned() {
    let db = tlc_scale_1();
    let queries = beas::tlc::all_queries();
    assert_eq!(queries.len(), TLC.len());
    for (query, &(id, expected)) in queries.iter().zip(TLC) {
        assert_eq!(query.id, id);
        assert_plan(&db, id, &query.sql, expected);
    }
}

#[test]
fn uncovered_benchmark_shapes_plan_as_pinned() {
    let db = tlc_scale_1();
    for &(id, sql, expected) in UNCOVERED {
        assert_plan(&db, id, sql, expected);
    }
}
