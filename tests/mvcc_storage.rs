//! MVCC storage properties: structurally shared snapshots must be
//! *observationally* deep copies, and what a write copies must be set by
//! the write, not by the database.  Random interleavings of insert/delete
//! batches against a multi-segment table must leave every earlier
//! snapshot bit-identical to a deep-copy shadow taken at the same moment
//! and keep the segment count inside the merge policy's bound; counted
//! index buckets must equal a rebuild after every step; forks must copy no
//! rows and no index buckets; one maintenance round must copy the same
//! amount at scale 1 and at scale 8; and cached plans must survive data
//! writes and fall to bound changes.

use beas::access::MaintenanceOutcome;
use beas::prelude::*;
use beas::storage::{ConstraintIndex, CopyStats, IndexDump, SEGMENT_ROWS};
use proptest::prelude::*;

fn base_schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            beas::common::ColumnDef::new("k", DataType::Int),
            beas::common::ColumnDef::new("v", DataType::Int),
        ],
    )
    .unwrap()
}

/// A database whose single table spans multiple row segments, plus the
/// deep-copy shadow of its contents.
fn seeded(extra: usize) -> (Database, Vec<Row>) {
    let mut db = Database::new();
    db.create_table(base_schema()).unwrap();
    let rows: Vec<Row> = (0..SEGMENT_ROWS + extra)
        .map(|i| vec![Value::Int(i as i64), Value::Int((i % 101) as i64)])
        .collect();
    db.insert_many("t", rows.clone()).unwrap();
    (db, rows)
}

/// One randomized maintenance step.
#[derive(Debug, Clone)]
enum Op {
    /// Append `count` fresh rows tagged `salt`.
    Insert { count: usize, salt: i64 },
    /// Delete every row whose `v % modulus == residue`.
    Delete { modulus: i64, residue: i64 },
    /// Pin the current state (a structural clone) plus its deep shadow.
    Snapshot,
}

/// Derive a deterministic op sequence from an integer seed (the proptest
/// shim only samples integer ranges).
fn ops_from_seed(seed: u64, count: usize) -> Vec<Op> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|_| match next() % 5 {
            0 | 1 => Op::Insert {
                count: (next() % 63 + 1) as usize,
                salt: (next() % 1000) as i64,
            },
            2 | 3 => {
                let modulus = (next() % 7 + 2) as i64;
                Op::Delete {
                    modulus,
                    residue: (next() % modulus as u64) as i64,
                }
            }
            _ => Op::Snapshot,
        })
        .collect()
}

fn table_rows(db: &Database) -> Vec<Row> {
    db.table("t").unwrap().rows_iter().cloned().collect()
}

/// The most segments a table of `rows` rows may hold.  The merge rule
/// leaves no adjacent pair with `left <= 2 * right` that fits one segment,
/// so the spine is a sequence of runs in which sizes more than halve from
/// one segment to the next — at most `log2(SEGMENT_ROWS) + 1` long — and
/// across each run boundary two neighbours hold more than `SEGMENT_ROWS`
/// rows together.
fn segment_bound(rows: usize) -> usize {
    (2 * rows / SEGMENT_ROWS + 1) * (SEGMENT_ROWS.ilog2() as usize + 1)
}

fn check_segment_bound(table: &Table) {
    assert!(
        table.segment_count() <= segment_bound(table.row_count()),
        "{} rows in {} segments",
        table.row_count(),
        table.segment_count()
    );
}

/// Deep structural validation (segment layout, catalog/stats consistency)
/// after every random step.  Active in debug builds and under
/// `--features validate`; a no-op in plain release builds, where the
/// validators are compiled out.
fn check_db(db: &Database) {
    #[cfg(any(debug_assertions, feature = "validate"))]
    db.check_invariants().unwrap();
    #[cfg(not(any(debug_assertions, feature = "validate")))]
    let _ = db;
}

/// Whole-system validation: database, every constraint index against its
/// table, and the plan cache (see `BeasSystem::check_invariants`).
fn check_system(system: &BeasSystem) {
    #[cfg(any(debug_assertions, feature = "validate"))]
    system.check_invariants().unwrap();
    #[cfg(not(any(debug_assertions, feature = "validate")))]
    let _ = system;
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Structural sharing is an implementation detail: under any
    /// interleaving of writes and snapshots, (a) the live database always
    /// matches a deep-copy shadow mutated by the same logical operations,
    /// and (b) every snapshot taken along the way stays bit-identical to
    /// the shadow frozen with it, no matter what later writes did.
    #[test]
    fn random_write_interleavings_leave_snapshots_bit_identical_to_deep_copies(
        extra in 1usize..1500,
        seed in 0u64..1_000_000,
        op_count in 1usize..14,
    ) {
        let ops = ops_from_seed(seed, op_count);
        let (mut db, mut shadow) = seeded(extra);
        let mut next_key = shadow.len() as i64;
        let mut snapshots: Vec<(Database, Vec<Row>)> = vec![(db.clone(), shadow.clone())];
        for op in &ops {
            match op {
                Op::Insert { count, salt } => {
                    for _ in 0..*count {
                        let row = vec![Value::Int(next_key), Value::Int(salt % 101)];
                        db.insert("t", row.clone()).unwrap();
                        shadow.push(row);
                        next_key += 1;
                    }
                }
                Op::Delete { modulus, residue } => {
                    let (m, r) = (*modulus, *residue);
                    let matches =
                        move |row: &Row| row[1].as_int().map(|v| v % m == r).unwrap_or(false);
                    db.table_mut("t").unwrap().delete_where(matches);
                    shadow.retain(|row| !matches(row));
                }
                Op::Snapshot => snapshots.push((db.clone(), shadow.clone())),
            }
            // the live database tracks its deep shadow after every step,
            // and its internal structure stays valid (segment layout,
            // catalog and stats-cache consistency)
            prop_assert_eq!(table_rows(&db), shadow.clone());
            check_segment_bound(db.table("t").unwrap());
            check_db(&db);
        }
        // no snapshot was disturbed by anything that happened after it —
        // and each one is still structurally valid on its own
        for (snap_db, snap_shadow) in &snapshots {
            prop_assert_eq!(&table_rows(snap_db), snap_shadow);
            prop_assert_eq!(
                snap_db.table("t").unwrap().row_count(),
                snap_shadow.len()
            );
            check_db(snap_db);
        }
    }
}

/// One step of the counted-bucket property: every step lands on a fork of
/// the system before it, the way a service publishes.
#[derive(Debug, Clone)]
enum CountedOp {
    /// `copies` base rows carrying the same `(k, v)` partial tuple.
    Insert { k: i64, v: i64, copies: usize },
    /// Delete one base row carrying `(k, v)`, if there is one.
    DeleteOne { k: i64, v: i64 },
    /// Delete every row of key `k`.
    DeleteKey { k: i64 },
    /// Keep the current system pinned, with deep copies of what it holds.
    Pin,
}

fn counted_ops_from_seed(seed: u64, count: usize) -> Vec<CountedOp> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n) as i64
    };
    (0..count)
        .map(|_| match next(8) {
            0..=2 => CountedOp::Insert {
                k: next(5),
                v: next(3),
                copies: next(4) as usize + 1,
            },
            3..=5 => CountedOp::DeleteOne {
                k: next(5),
                v: next(3),
            },
            6 => CountedOp::DeleteKey { k: next(5) },
            _ => CountedOp::Pin,
        })
        .collect()
}

/// `t(k, v, id)` under `t(k -> v, 3)`: five keys, three `Y`-values, so
/// nearly every insert lands on a partial tuple other rows already carry.
fn counted_system(rows: usize) -> (BeasSystem, Vec<Row>) {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "t",
            ["k", "v", "id"]
                .map(|c| beas::common::ColumnDef::new(c, DataType::Int))
                .to_vec(),
        )
        .unwrap(),
    )
    .unwrap();
    let shadow: Vec<Row> = (0..rows as i64)
        .map(|i| vec![Value::Int(i % 5), Value::Int(i % 3), Value::Int(i)])
        .collect();
    db.insert_many("t", shadow.clone()).unwrap();
    let schema =
        AccessSchema::from_constraints(
            vec![AccessConstraint::new("t", &["k"], &["v"], 3).unwrap()],
        );
    (BeasSystem::with_schema(db, schema).unwrap(), shadow)
}

/// The system's one index, dumped with its per-entry base-row counts.
fn index_dump(system: &BeasSystem) -> IndexDump {
    let c = &system.access_schema().constraints()[0];
    system.indexes().for_constraint(c).unwrap().sorted_entries()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Counted buckets: whatever order base rows sharing one `(X, Y)`
    /// partial tuple come and go in, the maintained index — entries *and*
    /// counts — equals one rebuilt from the table after every step, the
    /// counts add up to the table's rows (`check_invariants`, in validating
    /// builds), the segment count stays inside the merge policy's bound,
    /// and systems pinned along the way keep exactly what they held.
    #[test]
    fn counted_buckets_equal_a_rebuild_after_every_step(
        rows in 0usize..400,
        seed in 0u64..1_000_000,
        op_count in 1usize..40,
    ) {
        let (mut system, mut shadow) = counted_system(rows);
        let mut next_id = rows as i64;
        let mut pinned: Vec<(BeasSystem, Vec<Row>, IndexDump)> = Vec::new();
        for op in counted_ops_from_seed(seed, op_count) {
            let mut fork = system.fork();
            match op {
                CountedOp::Insert { k, v, copies } => {
                    let batch: Vec<Row> = (0..copies as i64)
                        .map(|i| vec![Value::Int(k), Value::Int(v), Value::Int(next_id + i)])
                        .collect();
                    next_id += copies as i64;
                    shadow.extend(batch.iter().cloned());
                    prop_assert_eq!(fork.insert_rows("t", batch).unwrap().rows_affected, copies);
                }
                CountedOp::DeleteOne { k, v } => {
                    let hit = |r: &Row| r[0] == Value::Int(k) && r[1] == Value::Int(v);
                    let expected = match shadow.iter().position(hit) {
                        Some(i) => {
                            shadow.remove(i);
                            1
                        }
                        None => 0,
                    };
                    let mut done = false;
                    let out = fork.delete_rows("t", |r| {
                        let first = !done && hit(r);
                        done |= first;
                        first
                    });
                    prop_assert_eq!(out.unwrap().rows_affected, expected);
                }
                CountedOp::DeleteKey { k } => {
                    shadow.retain(|r| r[0] != Value::Int(k));
                    fork.delete_rows("t", |r| r[0] == Value::Int(k)).unwrap();
                }
                CountedOp::Pin => pinned.push((system.fork(), shadow.clone(), index_dump(&system))),
            }
            // the previous generation is dropped here unless pinned, as a
            // service drops the snapshot it replaces
            system = fork;
            prop_assert_eq!(table_rows(system.database()), shadow.clone());
            let table = system.database().table("t").unwrap();
            let rebuilt = ConstraintIndex::build(table, &["k".into()], &["v".into()]).unwrap();
            prop_assert_eq!(index_dump(&system), rebuilt.sorted_entries());
            let counted: u32 = index_dump(&system)
                .iter()
                .flat_map(|(_, bucket)| bucket.iter().map(|(_, n)| *n))
                .sum();
            prop_assert_eq!(counted as usize, shadow.len());
            check_segment_bound(table);
            check_system(&system);
        }
        for (snapshot, rows, dump) in &pinned {
            prop_assert_eq!(&table_rows(snapshot.database()), rows);
            prop_assert_eq!(&index_dump(snapshot), dump);
            check_system(snapshot);
        }
    }
}

/// `fork()` is O(handles): every row segment, every index shard and every
/// bucket of the fork is physically the parent's allocation — nothing
/// row-sized is copied until a write actually lands.
#[test]
fn fork_copies_no_rows_and_no_index_buckets() {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(1)).unwrap();
    let system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema()).unwrap();
    let fork = system.fork();
    for name in system.database().table_names() {
        let a = system.database().table(&name).unwrap();
        let b = fork.database().table(&name).unwrap();
        assert_eq!(
            a.shared_segment_count(b),
            a.segment_count(),
            "{name}: fork must share every row segment"
        );
    }
    for c in system.access_schema().constraints() {
        let a = system.indexes().for_constraint(c).unwrap();
        let b = fork.indexes().for_constraint(c).unwrap();
        assert_eq!(
            a.shared_shard_count(b),
            a.shard_count(),
            "{}: fork must share every index shard",
            c.id()
        );
        assert_eq!(a.shared_bucket_count(b), a.distinct_keys());
    }
    // sharing everything left both sides structurally valid, with every
    // index still equal to a from-scratch rebuild over its table
    check_system(&system);
    check_system(&fork);
}

/// What one maintenance batch on a fork of `parent` left unshared, per
/// `call` index: (shards, buckets) of the fork that are not the parent's.
fn unshared(parent: &BeasSystem, fork: &BeasSystem) -> Vec<(usize, usize)> {
    parent
        .access_schema()
        .for_table("call")
        .into_iter()
        .map(|c| {
            let (old, new) = (
                parent.indexes().for_constraint(c).unwrap(),
                fork.indexes().for_constraint(c).unwrap(),
            );
            (
                new.shard_count() - new.shared_shard_count(old),
                new.distinct_keys() - new.shared_bucket_count(old),
            )
        })
        .collect()
}

/// What a maintenance round copied and left unshared, with the one figure
/// that may depend on `|D|` — how many shards the batch's keys hash into —
/// capped and set aside.
#[derive(Debug, PartialEq)]
struct RoundCost {
    insert: CopyStats,
    insert_unshared_buckets: Vec<usize>,
    delete: CopyStats,
}

/// Insert `batch` into `call` on a fork of `system`, delete it again on a
/// fork of that (each step against a live previous generation, as a service
/// publishes), check that the round left tables and indices as it found
/// them, and report what it copied.
fn maintenance_round(system: &BeasSystem, batch: Vec<Row>, first_id: i64) -> RoundCost {
    let rows = batch.len();
    let indexes = system.access_schema().for_table("call").len();
    assert_eq!(indexes, 2, "ψ1 and ψ13");
    let bounded = |what: &str, out: &MaintenanceOutcome| {
        assert_eq!(out.rows_affected, rows, "{what}");
        let c = out.copied;
        assert!(c.shards_cloned as usize <= rows * indexes, "{what}: {c:?}");
        assert!(c.buckets_cloned as usize <= rows * indexes, "{what}: {c:?}");
        CopyStats {
            shards_cloned: 0,
            ..c
        }
    };

    let mut inserted = system.fork();
    let out = inserted.insert_rows("call", batch).unwrap();
    let insert = bounded("insert", &out);
    let (old, new) = (
        system.database().table("call").unwrap(),
        inserted.database().table("call").unwrap(),
    );
    assert_eq!(new.shared_segment_count(old), old.segment_count());
    assert_eq!(new.row_count(), old.row_count() + rows);
    let left = unshared(system, &inserted);
    for (shards, buckets) in &left {
        assert!(*shards <= 2 * rows && *buckets <= rows, "{left:?}");
    }

    let mut deleted = inserted.fork();
    let out = deleted
        .delete_rows(
            "call",
            |r| matches!(r[15], Value::Int(id) if id >= first_id),
        )
        .unwrap();
    let delete = bounded("delete", &out);
    let table = deleted.database().table("call").unwrap();
    assert_eq!(table.shared_segment_count(old), old.segment_count());
    assert!(table.rows_iter().eq(old.rows_iter()));
    for c in system.access_schema().for_table("call") {
        assert_eq!(
            deleted
                .indexes()
                .for_constraint(c)
                .unwrap()
                .sorted_entries(),
            system.indexes().for_constraint(c).unwrap().sorted_entries(),
            "{}: counts must be back where they were",
            c.id()
        );
    }
    check_system(&deleted);
    RoundCost {
        insert,
        insert_unshared_buckets: left.into_iter().map(|(_, buckets)| buckets).collect(),
        delete,
    }
}

/// Scale independence, structurally (no clock): what a maintenance round
/// copies is a function of the batch.  The same 256-row insert and its
/// delete copy the same at scale 1 and at scale 8 — not one row, one new
/// segment, one bucket per key the batch touches — and a single-row insert
/// copies one bucket per index.
#[test]
fn a_maintenance_round_copies_the_same_at_scale_1_and_scale_8() {
    const FIRST_ID: i64 = 1 << 40;
    // 256 calls on a day the generator never produces: 64 callers, 8 towers
    let fresh: Vec<Row> = (0..256usize)
        .map(|i| {
            vec![
                Value::str(beas::tlc::generator::pnum(i % 64)),
                Value::str(beas::tlc::generator::pnum(i)),
                Value::str("2031-03-01"),
                Value::str("north"),
                Value::Int(60 + i as i64),
                Value::Int(9),
                Value::Int(10),
                Value::str("local"),
                Value::str(beas::tlc::generator::cell_id(i % 8)),
                Value::Bool(false),
                Value::Bool(false),
                Value::Float(0.5),
                Value::str("outgoing"),
                Value::Int(0),
                Value::str("4g"),
                Value::Int(FIRST_ID + i as i64),
            ]
        })
        .collect();
    let costs: Vec<(RoundCost, RoundCost, RoundCost)> = [1u32, 8]
        .into_iter()
        .map(|scale| {
            let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(scale)).unwrap();
            let system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema()).unwrap();
            // each row again, from rows spread over the whole table: every
            // partial tuple is one some other row already carries
            let call = system.database().table("call").unwrap();
            let again = |count: usize| -> Vec<Row> {
                (0..count)
                    .map(|i| {
                        let mut row = call.row(i * (call.row_count() / count)).unwrap().clone();
                        row[15] = Value::Int(FIRST_ID + i as i64);
                        row
                    })
                    .collect()
            };
            (
                maintenance_round(&system, fresh.clone(), FIRST_ID),
                maintenance_round(&system, again(256), FIRST_ID),
                maintenance_round(&system, again(1), FIRST_ID),
            )
        })
        .collect();
    let (small, large) = (&costs[0], &costs[1]);

    // new keys: nothing existing is copied to take them, and taking them
    // out again copies exactly the buckets the insert made — 64 (pnum, date)
    // keys and 8 (cell_id, date) keys
    let opened = CopyStats {
        segments_opened: 1,
        ..CopyStats::default()
    };
    assert_eq!(small.0.insert, opened);
    assert_eq!(small.0.insert_unshared_buckets, [64, 8]);
    assert_eq!(small.0.delete.buckets_cloned, 64 + 8);
    assert_eq!(small.0.delete.rows_copied, 0);
    assert_eq!(small.0, large.0, "fresh keys cost the same at both scales");

    // existing partial tuples: one bucket copied per key touched, at most
    // one per row and index, and no row of the table
    for (scale, cost) in [(1, &small.1), (8, &large.1)] {
        assert_eq!(cost.insert.rows_copied + cost.delete.rows_copied, 0);
        assert_eq!(
            cost.insert.buckets_cloned as usize,
            cost.insert_unshared_buckets.iter().sum::<usize>(),
            "scale {scale}"
        );
    }

    // one row: one segment, one bucket per index, nothing else — and the
    // same again to take it out
    let one_bucket_per_index = CopyStats {
        buckets_cloned: 2,
        ..CopyStats::default()
    };
    let single = RoundCost {
        insert: CopyStats {
            segments_opened: 1,
            ..one_bucket_per_index
        },
        insert_unshared_buckets: vec![1, 1],
        delete: one_bucket_per_index,
    };
    assert_eq!(small.2, single);
    assert_eq!(large.2, single);
}

/// The plan cache's contract end to end: a cached plan is a function of the
/// access schema (no table is created or dropped under a system), so data
/// writes — to any table, its own included — leave it serving hits with
/// fresh answers, and a bound adjustment invalidates every plan.
#[test]
fn cached_plans_survive_data_writes_and_fall_to_schema_changes() {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(1)).unwrap();
    let mut system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema()).unwrap();
    let q = "select distinct region from call where pnum = 'p1' and date = '2016-07-04'";
    let other = "select pid from package where pnum = 'p1' and year = 2016";
    assert!(system.execute_sql(q).unwrap().rows.is_empty());
    system.execute_sql(other).unwrap();
    assert_eq!(system.plan_cache_stats().misses, 2);

    // a maintenance batch on `business`, then one on `call` that changes
    // the first query's answer
    let sample: Vec<Row> = system
        .database()
        .table("business")
        .unwrap()
        .rows_iter()
        .take(5)
        .cloned()
        .collect();
    system.insert_rows("business", sample).unwrap();
    let mut call: Row = system
        .database()
        .table("call")
        .unwrap()
        .row(0)
        .unwrap()
        .clone();
    call[0] = Value::str("p1");
    call[2] = Value::str("2016-07-04");
    call[3] = Value::str("fresh");
    system.insert_rows("call", vec![call]).unwrap();
    assert_eq!(
        system.execute_sql(q).unwrap().rows,
        vec![vec![Value::str("fresh")]],
        "the cached plan reads the maintained index"
    );
    system
        .delete_rows("call", |r| r[3] == Value::str("fresh"))
        .unwrap();
    assert!(system.execute_sql(q).unwrap().rows.is_empty());
    let stats = system.plan_cache_stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.invalidations),
        (2, 2, 0),
        "three data writes invalidate no plan: {stats}"
    );

    // a bound adjustment invalidates every plan, each on its next use
    assert!(!system.adjust_bounds(1.0).unwrap().is_empty());
    system.execute_sql(q).unwrap();
    system.execute_sql(other).unwrap();
    let stats = system.plan_cache_stats();
    assert_eq!((stats.misses, stats.invalidations), (4, 2), "{stats}");

    // maintenance writes left tables, indexes and the plan cache coherent
    check_system(&system);
}
