//! Vectorized ≡ row differential harness: the columnar kernel path must be
//! **bit-exact** with the row-at-a-time reference pipeline — same rows, same
//! order, same `Int`/`Float` variants (compared as Debug strings, which
//! distinguish `Int(1)` from `Float(1.0)` and `-0.0` from `0.0`), same error
//! kind and message, same `tuples_accessed`, and the same quota accounting —
//! tripping or not — across join / DISTINCT / aggregate / ORDER BY … LIMIT
//! shapes, morsels small enough that every table splits into many, and
//! mixed Int / Float / Date / date-string / NULL data.
//!
//! [`ExecProfile::Alternating`] forces a mid-query fallback (kernels on even
//! morsels, the row path on odd ones), proving the two paths splice without
//! a seam; kernel errors and uncovered expressions (`LIKE`) exercise the
//! dynamic and static fallbacks respectively.

use beas::engine::ParallelConfig;
use beas::prelude::*;
use proptest::prelude::*;

/// Mixed-type float-key pool: ints-as-floats, fractional floats, negative
/// zero, NaN and NULLs — the values whose canonicalization has historically
/// diverged between execution paths.
fn float_key(choice: u64) -> Value {
    match choice % 8 {
        0 => Value::Float(1.0),
        1 => Value::Float(2.0),
        2 => Value::Float(2.5),
        3 => Value::Float(-0.0),
        4 => Value::Float(0.0),
        5 => Value::Null,
        6 => Value::Float(f64::NAN),
        _ => Value::Float(3.0),
    }
}

/// Date-shaped-string pool: parsable dates (which canonical join keys treat
/// as `Date`s), an unparsable date-shaped string (stays a string), a plain
/// string and NULL.
fn date_string(choice: u64) -> Value {
    match choice % 6 {
        0 => Value::str("2016-07-04"),
        1 => Value::str("2016-07-05"),
        2 => Value::str("2016-07-06"),
        3 => Value::str("2016-99-99"),
        4 => Value::Null,
        _ => Value::str("plain"),
    }
}

fn build_db(seed: u64, n1: usize, n2: usize) -> Database {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "t1",
            vec![
                beas::common::ColumnDef::nullable("kf", DataType::Float),
                beas::common::ColumnDef::new("ki", DataType::Int),
                beas::common::ColumnDef::new("tag", DataType::Str),
                beas::common::ColumnDef::nullable("ds", DataType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "t2",
            vec![
                beas::common::ColumnDef::nullable("kd", DataType::Date),
                beas::common::ColumnDef::new("name", DataType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let tags = ["a", "b", "c"];
    for _ in 0..n1 {
        db.insert(
            "t1",
            vec![
                float_key(next()),
                Value::Int((next() % 5) as i64),
                Value::str(tags[(next() % 3) as usize]),
                date_string(next()),
            ],
        )
        .unwrap();
    }
    for i in 0..n2 {
        let kd = match next() % 5 {
            0 => Value::str("2016-07-04"),
            1 => Value::str("2016-07-05"),
            2 => Value::str("2016-07-06"),
            3 => Value::str("2016-07-07"),
            _ => Value::Null,
        };
        db.insert("t2", vec![kd, Value::str(format!("n{}", i % 4))])
            .unwrap();
    }
    db
}

/// Query shapes with kernel-heavy expressions: cross-family numeric
/// comparison, a date-string ≡ date join, `IN` / `BETWEEN` / `OR`,
/// per-morsel pre-deduped DISTINCT, aggregation, and lazy LIMIT prefixes
/// (which keep the row-at-a-time scan by design).
fn query_shape(shape: usize, limit: usize) -> String {
    match shape % 8 {
        0 => "select ki, kf from t1 where kf = ki".to_string(),
        1 => format!("select distinct tag from t1 order by tag limit {limit}"),
        2 => "select t1.ki, t2.name from t1, t2 where t1.ds = t2.kd".to_string(),
        3 => format!(
            "select t1.ki from t1, t2 where t1.ds = t2.kd and t1.tag = 'b' \
             order by t1.ki desc limit {limit}"
        ),
        4 => "select tag, count(*), min(ki), max(ki), count(distinct kf) from t1 \
              group by tag order by tag"
            .to_string(),
        5 => format!("select distinct kf, ki from t1 order by ki, kf limit {limit}"),
        6 => "select ki, tag from t1 where ki in (1, 2, 4) or kf between 1 and 2".to_string(),
        _ => "select tag, sum(ki), avg(kf), count(distinct ki) from t1 group by tag order by tag"
            .to_string(),
    }
}

/// Four-row morsels: every table splits into many, so kernel and row-path
/// morsels splice mid-scan.
const TINY_MORSELS: ParallelConfig = ParallelConfig { morsel_rows: 4 };

struct Run {
    result: beas::common::Result<QueryResult>,
    tuples_used: u64,
}

fn run(db: &Database, sql: &str, exec: ExecProfile, max_tuples: u64) -> Run {
    let tracker = ResourceQuota::unlimited()
        .with_max_tuples(max_tuples)
        .tracker();
    let result = Engine::default()
        .with_parallelism(TINY_MORSELS)
        .with_exec_profile(exec)
        .run_with_quota(db, sql, Some(&tracker));
    Run {
        result,
        tuples_used: tracker.tuples_used(),
    }
}

/// Assert one vectorized run is bit-exact with its row-path reference: the
/// same rows or the same error (kind and message, which carries the position
/// or the quota usage), and the same quota charge either way.
fn assert_bit_exact(
    sql: &str,
    exec: ExecProfile,
    reference: &Run,
    candidate: &Run,
) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
    let ctx = format!("{sql} under {exec}");
    match (&reference.result, &candidate.result) {
        (Ok(r), Ok(c)) => {
            prop_assert_eq!(
                format!("{:?}", r.rows),
                format!("{:?}", c.rows),
                "rows diverged for {}",
                ctx
            );
            prop_assert_eq!(
                r.metrics.total_tuples_accessed(),
                c.metrics.total_tuples_accessed(),
                "tuples_accessed diverged for {}",
                ctx
            );
        }
        (Err(re), Err(ce)) => {
            prop_assert_eq!(re.kind(), ce.kind(), "error kind diverged for {}", ctx);
            // The fallback re-runs a failing morsel on the row path, and a
            // kernel morsel charges the quota row by row: the message (and
            // the position or usage baked into it) matches too.
            prop_assert_eq!(
                re.to_string(),
                ce.to_string(),
                "error message diverged for {}",
                ctx
            );
        }
        (r, c) => prop_assert!(
            false,
            "success/error divergence for {}: row-path {:?}, vectorized {:?}",
            ctx,
            r.as_ref().map(|q| q.rows.len()),
            c.as_ref().map(|q| q.rows.len())
        ),
    }
    prop_assert_eq!(
        reference.tuples_used,
        candidate.tuples_used,
        "quota accounting diverged for {}",
        ctx
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Vectorized ≡ row for every shape × profile, including the forced
    /// mid-query fallback ([`ExecProfile::Alternating`]).
    #[test]
    fn vectorized_matches_row_path(
        seed in 0u64..10_000,
        n1 in 0usize..48,
        n2 in 0usize..25,
        shape in 0usize..8,
        limit in 1usize..12,
    ) {
        let db = build_db(seed, n1, n2);
        let sql = query_shape(shape, limit);
        let reference = run(&db, &sql, ExecProfile::RowAtATime, u64::MAX);
        for exec in [ExecProfile::Vectorized, ExecProfile::Alternating] {
            let candidate = run(&db, &sql, exec, u64::MAX);
            assert_bit_exact(&sql, exec, &reference, &candidate)?;
        }
    }

    /// Same differential under a tight tuple quota: trips must surface with
    /// the same error kind, the same message and the same `tuples_used`.
    #[test]
    fn vectorized_matches_row_path_under_quota(
        seed in 0u64..10_000,
        n1 in 4usize..48,
        shape in 0usize..8,
        max_tuples in 1u64..24,
    ) {
        let db = build_db(seed, n1, 12);
        let sql = query_shape(shape, 6);
        let reference = run(&db, &sql, ExecProfile::RowAtATime, max_tuples);
        for exec in [ExecProfile::Vectorized, ExecProfile::Alternating] {
            let candidate = run(&db, &sql, exec, max_tuples);
            assert_bit_exact(&sql, exec, &reference, &candidate)?;
        }
    }

    /// The batch layout invariants hold for every morsel the engine could
    /// build from mixed-type rows, and the columnar view reads back exactly
    /// the row-major values (the validator also runs inside the engine on
    /// every batch under debug_assertions / `--features validate`).
    #[test]
    fn column_batches_validate_and_round_trip(
        seed in 0u64..10_000,
        n in 0usize..200,
    ) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<Row> = (0..n)
            .map(|_| vec![
                float_key(next()),
                Value::Int((next() % 5) as i64),
                date_string(next()),
            ])
            .collect();
        let batch = beas::common::ColumnBatch::from_rows(&rows);
        #[cfg(any(debug_assertions, feature = "validate"))]
        batch.check_invariants().unwrap();
        prop_assert_eq!(batch.len(), rows.len());
        prop_assert_eq!(batch.arity(), 3);
        for (i, row) in rows.iter().enumerate() {
            for (c, expected) in row.iter().enumerate() {
                let got = batch.column(c).unwrap().value_owned(i);
                prop_assert_eq!(
                    format!("{:?}", got),
                    format!("{:?}", expected),
                    "cell ({}, {})",
                    i,
                    c
                );
            }
        }
    }
}

/// A scan-quota trip is *fully* deterministic: same error message
/// (including the reported usage) and the same final `tuples_used` — the
/// budget plus the one tuple whose charge tripped — on every profile.
#[test]
fn serial_quota_trip_is_bit_exact() {
    let db = build_db(3, 40, 0);
    let sql = "select ki, tag from t1 where ki in (1, 2, 4) or kf between 1 and 2";
    let reference = run(&db, sql, ExecProfile::RowAtATime, 10);
    let ref_err = reference.result.expect_err("quota must trip");
    assert_eq!(ref_err.kind(), "quota_exceeded");
    assert_eq!(reference.tuples_used, 11);
    for exec in [ExecProfile::Vectorized, ExecProfile::Alternating] {
        let candidate = run(&db, sql, exec, 10);
        let err = candidate.result.expect_err("quota must trip");
        assert_eq!(err.to_string(), ref_err.to_string(), "{exec}");
        assert_eq!(candidate.tuples_used, reference.tuples_used, "{exec}");
    }
}

/// `LIKE` is deliberately uncovered by the kernels: the fragment takes the
/// static row-path fallback and still matches the reference bit for bit.
#[test]
fn uncovered_like_falls_back_statically() {
    let db = build_db(5, 40, 0);
    let sql = "select ki, tag from t1 where tag like '%a%' and ki > 1";
    let reference = run(&db, sql, ExecProfile::RowAtATime, u64::MAX);
    let expected = reference.result.unwrap();
    for exec in [ExecProfile::Vectorized, ExecProfile::Alternating] {
        let got = run(&db, sql, exec, u64::MAX).result.unwrap();
        assert_eq!(
            format!("{:?}", expected.rows),
            format!("{:?}", got.rows),
            "{exec}"
        );
        // Static fallback: the kernels never ran, so no Vectorized marker
        // appears in the plan metrics.
        assert!(
            !got.metrics.render().contains("Vectorized("),
            "{exec}: LIKE fragment must not take the kernel path"
        );
    }
}

/// The kernel path actually engages (guards against a vacuously-green
/// differential): a covered fragment reports its batch count, and a
/// type error that the kernels over-detect re-runs on the row path with the
/// identical error message.
#[test]
fn kernels_engage_and_errors_reproduce_exactly() {
    let db = build_db(9, 40, 0);
    let covered = "select ki from t1 where tag = 'a'";
    let got = run(&db, covered, ExecProfile::Vectorized, u64::MAX)
        .result
        .unwrap();
    let rendered = got.metrics.render();
    assert!(
        rendered.contains("Vectorized(batches=") && rendered.contains("fallbacks=0"),
        "covered fragment must run on the kernel path:\n{rendered}"
    );

    // tag > 5 type-errors on the first row of the first morsel; the kernel
    // detects it batch-wide, falls back, and the row path reproduces the
    // row-path error exactly.
    let erroring = "select ki from t1 where tag > 5";
    let reference = run(&db, erroring, ExecProfile::RowAtATime, u64::MAX);
    let ref_err = reference.result.expect_err("type error");
    for exec in [ExecProfile::Vectorized, ExecProfile::Alternating] {
        let candidate = run(&db, erroring, exec, u64::MAX);
        let err = candidate.result.expect_err("type error");
        assert_eq!(err.to_string(), ref_err.to_string(), "{exec}");
        assert_eq!(candidate.tuples_used, reference.tuples_used, "{exec}");
    }
}
