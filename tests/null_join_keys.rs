//! NULL join-key semantics, pinned on both engines (ROADMAP open item).
//!
//! SQL equality never matches NULL — `a.k = b.k` is *unknown* when either
//! side is NULL, so NULL-keyed rows join nothing.  The constraint indices,
//! however, group NULL keys into a bucket (DISTINCT semantics), so the
//! bounded fetch path must explicitly *skip* NULL fetch keys or it would
//! resurrect rows the baseline excludes.  These tests pin the agreement on
//! data that exercises exactly that divergence.

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

/// call/business with NULL pnums on both sides: a NULL-pnum business and a
/// NULL-pnum call must never pair up, on any path.
fn null_heavy_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "call",
            vec![
                beas::common::ColumnDef::nullable("pnum", DataType::Str),
                beas::common::ColumnDef::new("recnum", DataType::Str),
                beas::common::ColumnDef::new("date", DataType::Date),
                beas::common::ColumnDef::new("region", DataType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "business",
            vec![
                beas::common::ColumnDef::nullable("pnum", DataType::Str),
                beas::common::ColumnDef::new("type", DataType::Str),
                beas::common::ColumnDef::new("region", DataType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    for (p, t) in [
        (Value::str("b1"), "bank"),
        (Value::Null, "bank"),
        (Value::Null, "bank"),
        (Value::str("b2"), "bank"),
        (Value::str("b3"), "shop"),
    ] {
        db.insert("business", vec![p, Value::str(t), Value::str("r0")])
            .unwrap();
    }
    for (p, rec, reg) in [
        (Value::str("b1"), "x", "east"),
        (Value::str("b1"), "y", "west"),
        (Value::Null, "null1", "north"),
        (Value::Null, "null2", "south"),
        (Value::str("b2"), "z", "east"),
        (Value::str("b9"), "w", "east"),
    ] {
        db.insert(
            "call",
            vec![
                p,
                Value::str(rec),
                Value::str("2016-07-04"),
                Value::str(reg),
            ],
        )
        .unwrap();
    }
    db
}

const QUERY: &str = "select distinct call.recnum from call, business \
    where business.type = 'bank' and business.region = 'r0' \
    and business.pnum = call.pnum and call.date = '2016-07-04'";

#[test]
fn baseline_profiles_agree_null_keys_never_join() {
    let db = null_heavy_db();
    // the hash join's columnar kernels and its row path must agree
    let mut answers = Vec::new();
    for exec in ExecProfile::all() {
        let result = Engine::default()
            .with_exec_profile(exec)
            .run(&db, QUERY)
            .unwrap();
        answers.push(sorted(result.rows));
    }
    for a in &answers[1..] {
        assert_eq!(&answers[0], a);
    }
    // only the non-NULL matches: b1's two calls and b2's one
    assert_eq!(
        answers[0],
        vec![
            vec![Value::str("x")],
            vec![Value::str("y")],
            vec![Value::str("z")],
        ]
    );
}

#[test]
fn bounded_fetch_skips_null_keys_like_the_baseline() {
    let db = null_heavy_db();
    let schema = AccessSchema::from_constraints(vec![
        AccessConstraint::new("call", &["pnum", "date"], &["recnum", "region"], 500).unwrap(),
        AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
    ]);
    let system = BeasSystem::with_schema(db, schema).unwrap();
    let report = system.check(QUERY).unwrap();
    assert!(
        report.covered,
        "query must be covered: {:?}",
        report.coverage.reasons
    );
    let outcome = system.execute_sql(QUERY).unwrap();
    assert!(outcome.bounded);
    let baseline = Engine::default().run(system.database(), QUERY).unwrap();
    assert_eq!(sorted(outcome.rows.clone()), sorted(baseline.rows));
    // the NULL-keyed calls must not appear even though the index holds a
    // NULL bucket for them
    assert!(outcome
        .rows
        .iter()
        .all(|r| r[0] != Value::str("null1") && r[0] != Value::str("null2")));
}

#[test]
fn approximation_also_skips_null_keys() {
    let db = null_heavy_db();
    let schema = AccessSchema::from_constraints(vec![
        AccessConstraint::new("call", &["pnum", "date"], &["recnum", "region"], 500).unwrap(),
        AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
    ]);
    let system = BeasSystem::with_schema(db, schema).unwrap();
    let approx = system.approximate(QUERY, 1_000_000).unwrap();
    assert!((approx.coverage - 1.0).abs() < 1e-9);
    let baseline = Engine::default().run(system.database(), QUERY).unwrap();
    assert_eq!(sorted(approx.rows), sorted(baseline.rows));
}
