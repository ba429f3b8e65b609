//! The maintenance contract, driven through `BeasSystem` alone: after any
//! sequence of `insert_rows` / `delete_rows` batches the constraint indexes
//! equal indexes rebuilt from the system's own rows, bucket for bucket; a
//! batch `Strict` rejects changes nothing; `AutoAdjust` raises a bound and
//! every cached plan falls with it; `adjust_bounds` tightens each bound to
//! the observed maximum; and a write on a fork copies what its rows touch
//! and nothing more.

use beas::access::{build_indexes, check_conformance, MaintenancePolicy};
use beas::prelude::*;
use beas::storage::CopyStats;
use proptest::prelude::*;

const DAY: &str = "2016-07-04";

/// `call(pnum, date → recnum, 3)` over three rows: `p1` holds two recnums
/// on the day and `p2` one.
fn system() -> BeasSystem {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "call",
            vec![
                beas::common::ColumnDef::new("pnum", DataType::Str),
                beas::common::ColumnDef::new("recnum", DataType::Str),
                beas::common::ColumnDef::new("date", DataType::Date),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    for (p, r) in [("p1", "a"), ("p1", "b"), ("p2", "a")] {
        db.insert("call", row(p, r)).unwrap();
    }
    let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
        "call",
        &["pnum", "date"],
        &["recnum"],
        3,
    )
    .unwrap()]);
    BeasSystem::with_schema(db, schema).unwrap()
}

fn row(p: &str, r: &str) -> Row {
    vec![Value::str(p), Value::str(r), Value::str(DAY)]
}

fn call_id(system: &BeasSystem) -> String {
    system.access_schema().constraints()[0].id()
}

fn call_rows(system: &BeasSystem) -> Vec<Row> {
    let mut rows: Vec<Row> = system
        .database()
        .table("call")
        .unwrap()
        .rows_iter()
        .cloned()
        .collect();
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// Every maintained index equals the index rebuilt from the system's rows:
/// keys, partial tuples, base-row counts and the observed maximum.
fn assert_indexes_match_a_rebuild(system: &BeasSystem, step: &str) {
    let rebuilt = build_indexes(system.database(), system.access_schema()).unwrap();
    assert_eq!(system.indexes().len(), rebuilt.len(), "after {step}");
    for c in system.access_schema().constraints() {
        let maintained = system.indexes().for_constraint(c).unwrap();
        let reference = rebuilt.for_constraint(c).unwrap();
        assert_eq!(
            maintained.sorted_entries(),
            reference.sorted_entries(),
            "{c} diverges from a rebuild after {step}"
        );
        assert_eq!(
            maintained.observed_max_cardinality(),
            reference.observed_max_cardinality(),
            "{c}: maximum diverges after {step}"
        );
        maintained
            .check_against_table(system.database().table(&c.table).unwrap())
            .unwrap();
    }
}

#[test]
fn interleaved_batches_leave_the_indexes_equal_to_a_rebuild() {
    let mut system = system().with_maintenance_policy(MaintenancePolicy::AutoAdjust);
    let id = call_id(&system);
    let out = system.insert_rows("call", vec![row("p2", "b")]).unwrap();
    assert_eq!(out.rows_affected, 1);
    assert_indexes_match_a_rebuild(&system, "one insert");
    let out = system
        .delete_rows("call", |r| r[0] == Value::str("p1"))
        .unwrap();
    assert_eq!(out.rows_affected, 2);
    assert_indexes_match_a_rebuild(&system, "one delete");

    let inserts = [
        vec![row("p2", "b"), row("p3", "a"), row("p3", "b")],
        vec![row("p1", "x"), row("p1", "y"), row("p4", "a")],
        vec![row("p2", "c")],
    ];
    let deletes: [fn(&Row) -> bool; 3] = [
        |r| r[0] == Value::str("p1"),
        |r| r[1] == Value::str("b"),
        |r| r[0] == Value::str("p3"),
    ];
    for (step, (rows, delete)) in inserts.into_iter().zip(deletes).enumerate() {
        system.insert_rows("call", rows).unwrap();
        assert_indexes_match_a_rebuild(&system, &format!("insert {step}"));
        system.delete_rows("call", delete).unwrap();
        assert_indexes_match_a_rebuild(&system, &format!("delete {step}"));
    }
    // deleting everything empties the index the way a rebuild does
    system.delete_rows("call", |_| true).unwrap();
    assert_indexes_match_a_rebuild(&system, "deleting every row");
    let index = system.indexes().get(&id).unwrap();
    assert_eq!(index.total_entries(), 0);
    assert_eq!(index.observed_max_cardinality(), 0);
}

#[test]
fn a_batch_strict_rejects_leaves_the_rows_unchanged() {
    let mut system = system();
    let rows = call_rows(&system);
    let entries = system
        .indexes()
        .get(&call_id(&system))
        .unwrap()
        .sorted_entries();
    // p1 holds 2 recnums on the day and the bound is 3: two more break it
    let err = system
        .insert_rows("call", vec![row("p1", "c"), row("p1", "d")])
        .unwrap_err();
    assert_eq!(err.kind(), "conformance");
    assert_eq!(call_rows(&system), rows);
    assert_eq!(
        system
            .indexes()
            .get(&call_id(&system))
            .unwrap()
            .sorted_entries(),
        entries
    );
    assert_eq!(system.access_schema().constraints()[0].n, 3);
    // one of them still fits
    system.insert_rows("call", vec![row("p1", "c")]).unwrap();
    assert_indexes_match_a_rebuild(&system, "an insert up to the bound");
}

#[test]
fn a_batch_with_an_invalid_row_inserts_nothing_under_either_policy() {
    for policy in [MaintenancePolicy::Strict, MaintenancePolicy::AutoAdjust] {
        let mut system = system().with_maintenance_policy(policy);
        let rows = call_rows(&system);
        let bad = vec![Value::str("p9"), Value::Int(7), Value::str(DAY)];
        let err = system
            .insert_rows("call", vec![row("p9", "a"), bad])
            .unwrap_err();
        assert_eq!(err.kind(), "storage", "{policy:?}");
        assert_eq!(call_rows(&system), rows, "{policy:?}");
        assert_indexes_match_a_rebuild(&system, &format!("a rejected batch under {policy:?}"));
    }
}

#[test]
fn auto_adjust_raises_the_bound_and_moves_the_epoch() {
    let mut system = system().with_maintenance_policy(MaintenancePolicy::AutoAdjust);
    let sql = format!("SELECT recnum FROM call WHERE pnum = 'p1' AND date = '{DAY}'");
    assert_eq!(system.deduced_bound(&sql).unwrap(), Some(3));
    let out = system
        .insert_rows("call", vec![row("p1", "c"), row("p1", "d")])
        .unwrap();
    assert_eq!(out.rows_affected, 2);
    assert_eq!(out.adjusted, vec![(call_id(&system), 4)]);
    assert!(out.flagged.is_empty());
    assert_eq!(system.access_schema().constraints()[0].n, 4);
    assert!(check_conformance(system.database(), system.access_schema())
        .unwrap()
        .conforms());
    assert_indexes_match_a_rebuild(&system, "an adjusting insert");
    // the cached plan was prepared under the old bound: it falls
    assert_eq!(system.deduced_bound(&sql).unwrap(), Some(4));
    let stats = system.plan_cache_stats();
    assert_eq!((stats.misses, stats.invalidations), (2, 1), "{stats}");
    // a batch that raises nothing moves no epoch
    system.insert_rows("call", vec![row("p3", "a")]).unwrap();
    assert_eq!(system.deduced_bound(&sql).unwrap(), Some(4));
    assert_eq!(system.plan_cache_stats().invalidations, 1);
}

#[test]
fn rows_sharing_a_partial_tuple_are_counted_and_deleted_one_at_a_time() {
    let mut system = system();
    let id = call_id(&system);
    // three more base rows behind the existing (p1, day) -> a entry: the
    // bucket does not grow, so the bound of 3 is not in play
    let out = system
        .insert_rows("call", vec![row("p1", "a"), row("p1", "a"), row("p1", "a")])
        .unwrap();
    assert_eq!(out.rows_affected, 3);
    assert_eq!(system.indexes().get(&id).unwrap().total_entries(), 3);
    for remaining in (0..4).rev() {
        let mut done = false;
        let out = system
            .delete_rows("call", |r| {
                let hit = !done && r[0] == Value::str("p1") && r[1] == Value::str("a");
                done |= hit;
                hit
            })
            .unwrap();
        assert_eq!(out.rows_affected, 1);
        assert_indexes_match_a_rebuild(&system, &format!("{remaining} copies left"));
        // the partial tuple stays fetchable until its last base row goes
        assert_eq!(
            system.indexes().get(&id).unwrap().total_entries(),
            if remaining > 0 { 3 } else { 2 }
        );
    }
}

#[test]
fn a_write_on_a_fork_reports_exactly_what_it_copied() {
    // an unshared system copies nothing to take a write ...
    let mut own = system();
    let out = own.insert_rows("call", vec![row("p2", "b")]).unwrap();
    assert_eq!(out.copied, CopyStats::default());
    // ... a fork of it copies one shard's handles and the one bucket the
    // row falls in, and opens a segment instead of copying the tail
    let mut fork = own.fork();
    let out = fork.insert_rows("call", vec![row("p2", "c")]).unwrap();
    assert_eq!(
        out.copied,
        CopyStats {
            segments_opened: 1,
            shards_cloned: 1,
            buckets_cloned: 1,
            ..CopyStats::default()
        }
    );
    // deleting that row again drops the private segment: nothing more is
    // copied, the shard and the bucket are already the fork's own
    let out = fork
        .delete_rows("call", |r| r[1] == Value::str("c"))
        .unwrap();
    assert_eq!(out.rows_affected, 1);
    assert_eq!(out.copied, CopyStats::default());
    assert_eq!(own.database().table("call").unwrap().row_count(), 4);
    assert_eq!(call_rows(&fork), call_rows(&own));
    assert_indexes_match_a_rebuild(&fork, "a write and its undo on a fork");
    assert_indexes_match_a_rebuild(&own, "a write on its fork");
}

#[test]
fn adjust_bounds_tightens_every_bound_to_its_observed_maximum() {
    let mut system = system();
    let sql = format!("SELECT recnum FROM call WHERE pnum = 'p1' AND date = '{DAY}'");
    assert_eq!(system.deduced_bound(&sql).unwrap(), Some(3));
    let changes = system.adjust_bounds(1.0).unwrap();
    assert_eq!(changes, vec![(call_id(&system), 3, 2)]);
    assert_eq!(system.access_schema().constraints()[0].n, 2);
    assert_eq!(system.deduced_bound(&sql).unwrap(), Some(2));
    assert_eq!(system.plan_cache_stats().invalidations, 1);
    // nothing left to change, and no headroom below the observed maximum
    assert!(system.adjust_bounds(1.0).unwrap().is_empty());
    assert!(system.adjust_bounds(0.5).is_err());
    assert_eq!(system.access_schema().constraints()[0].n, 2);
}

#[test]
fn adjust_bounds_on_tlc_scale_1_returns_the_pinned_change_list() {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(1)).unwrap();
    let mut system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema()).unwrap();
    let changes = system.adjust_bounds(1.0).unwrap();
    // (constraint, declared N, observed maximum), in schema order; the four
    // constraints whose maximum is their N already are not listed
    let expected = [
        ("call(pnum,date->recnum,region,duration,cell_id)", 500, 1),
        (
            "package(pnum,year->pid,start_month,end_month,monthly_fee)",
            12,
            3,
        ),
        ("business(type,region->pnum,name,vip_level)", 2000, 1),
        ("sms(pnum,date->recnum,length,sms_type,delivered)", 1000, 1),
        (
            "data_usage(pnum,date->mb_down,mb_up,sessions,app_category,cell_id)",
            50,
            1,
        ),
        (
            "billing(pnum,year->month,total_due,paid,payment_method)",
            12,
            6,
        ),
        ("device(pnum->brand,model,os,five_g,purchase_year)", 3, 2),
        (
            "complaint(pnum,date->category,severity,resolved,channel)",
            20,
            1,
        ),
        ("call(cell_id,date->pnum,recnum,duration,region)", 2000, 8),
        (
            "customer(region,segment->pnum,city,credit_score)",
            50000,
            10,
        ),
    ]
    .map(|(id, old, new)| (id.to_string(), old, new));
    assert_eq!(changes, expected);
    assert!(check_conformance(system.database(), system.access_schema())
        .unwrap()
        .conforms());
}

#[test]
fn maintenance_keeps_bounded_answers_correct_under_updates() {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(1)).unwrap();
    let mut system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema())
        .unwrap()
        .with_maintenance_policy(MaintenancePolicy::AutoAdjust);
    // insert fresh copies of call records, then delete some originals
    let new_rows: Vec<Row> = call_rows_of(&system, 50);
    system.insert_rows("call", new_rows).unwrap();
    system
        .delete_rows("call", |r| r[4].as_int().unwrap_or(0) % 97 == 0)
        .unwrap();
    assert_indexes_match_a_rebuild(&system, "a TLC maintenance round");

    let (btype, region, pid, date) = beas::tlc::default_params();
    let q1 = beas::tlc::example2_query(btype, region, pid, date);
    let outcome = system.execute_sql(&q1).unwrap();
    assert!(outcome.bounded);
    let baseline = Engine::default().run(system.database(), &q1).unwrap();
    assert_eq!(sorted(outcome.rows), sorted(distinct(baseline.rows)));
}

fn call_rows_of(system: &BeasSystem, n: usize) -> Vec<Row> {
    system
        .database()
        .table("call")
        .unwrap()
        .rows_iter()
        .take(n)
        .cloned()
        .collect()
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

fn distinct(rows: Vec<Row>) -> Vec<Row> {
    let mut seen = std::collections::HashSet::new();
    rows.into_iter()
        .filter(|r| seen.insert(r.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Incrementally maintained constraint indexes are indistinguishable
    /// from indexes rebuilt from scratch after random insert/delete batches.
    #[test]
    fn incremental_maintenance_equals_rebuild(
        seed in 0u64..3,
        inserts in 1usize..40,
        delete_modulus in 2i64..30,
    ) {
        let config = beas::tlc::TlcConfig { scale_factor: 1, seed };
        let db = beas::tlc::generate(&config).unwrap();
        let mut system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema())
            .unwrap()
            .with_maintenance_policy(MaintenancePolicy::AutoAdjust);
        let new_rows = call_rows_of(&system, inserts);
        system.insert_rows("call", new_rows).unwrap();
        system
            .delete_rows("call", |r| r[4].as_int().unwrap_or(0) % delete_modulus == 0)
            .unwrap();
        assert_indexes_match_a_rebuild(&system, "a random maintenance round");
    }
}
