//! Pipelined ≡ batch semantics: the pull-based streaming executor must
//! produce exactly the rows — in exactly the order — that a reference
//! batch-materializing interpreter (PR-2's execution model) produces for
//! the same logical plan, on mixed-type data, through hash joins and cross
//! products.  Plus early-termination: a LIMIT under a filter must stop the
//! scan, observable through the scan's `tuples accessed` counter.

use beas::engine_executor::aggregate;
use beas::prelude::*;
use beas::sql::{evaluate, evaluate_predicate};
use proptest::prelude::*;

/// Reference batch interpreter: every operator materializes its full
/// input, joins are left-major nested loops over canonical keys, sorts are
/// stable, LIMIT truncates the finished batch.  Deliberately naive — it is
/// the executable specification the pipeline is checked against.
fn batch_execute(plan: &LogicalPlan, db: &Database) -> Result<Vec<Row>> {
    Ok(match plan {
        LogicalPlan::Scan { table, .. } => db.table(table)?.rows_iter().cloned().collect(),
        LogicalPlan::Context { .. } => unreachable!("the baseline planner emits no Context leaf"),
        LogicalPlan::Filter { input, predicate } => {
            let mut out = Vec::new();
            for row in batch_execute(input, db)? {
                if evaluate_predicate(predicate, &row)? {
                    out.push(row);
                }
            }
            out
        }
        LogicalPlan::Join {
            left, right, keys, ..
        } => {
            let left_rows = batch_execute(left, db)?;
            let right_rows = batch_execute(right, db)?;
            let left_idx: Vec<usize> = keys.iter().map(|(l, _)| *l).collect();
            let right_idx: Vec<usize> = keys.iter().map(|(_, r)| *r).collect();
            let mut out = Vec::new();
            for l in &left_rows {
                if keys.is_empty() {
                    for r in &right_rows {
                        let mut row = l.clone();
                        row.extend(r.iter().cloned());
                        out.push(row);
                    }
                    continue;
                }
                let Some(lk) = beas::common::join_key(l, &left_idx) else {
                    continue;
                };
                for r in &right_rows {
                    if beas::common::join_key(r, &right_idx).as_ref() == Some(&lk) {
                        let mut row = l.clone();
                        row.extend(r.iter().cloned());
                        out.push(row);
                    }
                }
            }
            out
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => aggregate(&batch_execute(input, db)?, group_by, aggregates)?,
        LogicalPlan::Project { input, exprs, .. } => {
            let mut out = Vec::new();
            for row in batch_execute(input, db)? {
                let mut projected = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    projected.push(evaluate(e, &row)?);
                }
                out.push(projected);
            }
            out
        }
        LogicalPlan::Distinct { input } => beas::common::dedupe(batch_execute(input, db)?),
        LogicalPlan::Sort { input, keys } => {
            let mut rows = batch_execute(input, db)?;
            rows.sort_by(|a, b| {
                for (idx, asc) in keys {
                    let ord = a[*idx].total_cmp(&b[*idx]);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            rows
        }
        LogicalPlan::Limit { input, limit } => {
            let mut rows = batch_execute(input, db)?;
            rows.truncate(*limit as usize);
            rows
        }
    })
}

/// Mixed-type key pool: ints-as-floats, fractional floats, NULLs — the
/// values whose canonicalization has historically diverged between paths.
fn key_value(choice: u64) -> Value {
    match choice % 7 {
        0 => Value::Float(1.0),
        1 => Value::Float(2.0),
        2 => Value::Float(2.5),
        3 => Value::Float(-0.0),
        4 => Value::Float(3.0),
        5 => Value::Null,
        _ => Value::Float(0.0),
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
                beas::common::ColumnDef::nullable("k", DataType::Float),
                beas::common::ColumnDef::new("v", DataType::Int),
                beas::common::ColumnDef::new("tag", DataType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "t2",
            vec![
                beas::common::ColumnDef::nullable("k", DataType::Float),
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
                key_value(next()),
                Value::Int((next() % 50) as i64),
                Value::str(tags[(next() % 3) as usize]),
            ],
        )
        .unwrap();
    }
    for i in 0..n2 {
        db.insert(
            "t2",
            vec![key_value(next()), Value::str(format!("n{}", i % 4))],
        )
        .unwrap();
    }
    db
}

fn query_shape(shape: usize, limit: usize) -> String {
    match shape % 7 {
        0 => format!("select v from t1 where tag = 'a' limit {limit}"),
        1 => format!("select distinct tag from t1 order by tag limit {limit}"),
        2 => "select t1.v, t2.name from t1, t2 where t1.k = t2.k".to_string(),
        3 => format!(
            "select t1.v from t1, t2 where t1.k = t2.k and t1.tag = 'b' \
             order by t1.v desc limit {limit}"
        ),
        4 => "select tag, count(*), sum(v) from t1 group by tag order by tag".to_string(),
        5 => format!("select t1.v, t2.name from t1, t2 where t1.tag = 'a' limit {limit}"),
        _ => format!("select distinct k, v from t1 order by v, k limit {limit}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The streaming operators produce identical rows *and order* to the
    /// batch reference on mixed-type data, for every query shape: hash
    /// joins (shapes 2 and 3) and a cross product (shape 5) included.
    #[test]
    fn pipelined_executor_matches_batch_reference(
        seed in 0u64..10_000,
        n1 in 0usize..40,
        n2 in 0usize..25,
        shape in 0usize..7,
        limit in 1usize..12,
    ) {
        let db = build_db(seed, n1, n2);
        let sql = query_shape(shape, limit);
        let engine = Engine::default();
        let bound = engine.bind(&db, &sql).unwrap();
        let plan = engine.plan(&db, &bound).unwrap();
        let reference = batch_execute(&plan, &db).unwrap();
        let result = engine.run_bound(&db, &bound).unwrap();
        prop_assert!(result.rows == reference, "pipelined != batch for {sql}");
    }
}

#[test]
fn limit_under_filter_terminates_the_scan() {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "big",
            vec![
                beas::common::ColumnDef::new("id", DataType::Int),
                beas::common::ColumnDef::new("tag", DataType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    for i in 0..50_000i64 {
        let tag = if i % 2 == 0 { "keep" } else { "drop" };
        db.insert("big", vec![Value::Int(i), Value::str(tag)])
            .unwrap();
    }
    let engine = Engine::default();
    let result = engine
        .run(&db, "select id from big where tag = 'keep' limit 10")
        .unwrap();
    assert_eq!(result.rows.len(), 10);
    let scan = result
        .metrics
        .operators
        .iter()
        .find(|o| o.operator.starts_with("SeqScan"))
        .expect("scan metrics");
    // 10 survivors at 50% selectivity ≈ 20 scanned rows, not 50 000
    assert!(
        scan.tuples_accessed <= 40,
        "scan read {} of 50000 rows — early termination failed",
        scan.tuples_accessed
    );
    // without the limit the same scan reads everything
    let full = engine
        .run(&db, "select id from big where tag = 'keep'")
        .unwrap();
    let full_scan = full
        .metrics
        .operators
        .iter()
        .find(|o| o.operator.starts_with("SeqScan"))
        .unwrap();
    assert_eq!(full_scan.tuples_accessed, 50_000);
}

#[test]
fn order_by_limit_still_consumes_but_returns_topk() {
    // Sort is a pipeline breaker: the scan must still read everything, and
    // the answer must be the true top-k (not a prefix).
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "nums",
            vec![beas::common::ColumnDef::new("x", DataType::Int)],
        )
        .unwrap(),
    )
    .unwrap();
    for i in 0..1000i64 {
        db.insert("nums", vec![Value::Int((i * 7919) % 1000)])
            .unwrap();
    }
    let result = Engine::default()
        .run(&db, "select x from nums order by x desc limit 3")
        .unwrap();
    assert_eq!(
        result.rows,
        vec![
            vec![Value::Int(999)],
            vec![Value::Int(998)],
            vec![Value::Int(997)]
        ]
    );
    let scan = result
        .metrics
        .operators
        .iter()
        .find(|o| o.operator.starts_with("SeqScan"))
        .unwrap();
    assert_eq!(scan.tuples_accessed, 1000);
}
