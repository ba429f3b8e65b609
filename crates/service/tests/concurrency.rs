//! Concurrency stress tests: N reader sessions racing a maintenance
//! writer through one [`QueryService`].
//!
//! The correctness contract under test is *snapshot consistency*: every
//! answer a session receives must be **bit-identical** to what a serial
//! (single-threaded) replay of the same maintenance batches produces at
//! the write generation the session observed.  Generations are the join
//! key between the two worlds: the service stamps each outcome with its
//! snapshot's generation, and the serial replay records the expected
//! answers at every generation it passes through.
//!
//! The plan cache is exercised hard by construction (every session reuses
//! the same query shapes across generations) and its counters must add up
//! exactly — every prepare lookup any thread performed is either a hit or
//! a miss, with none lost to races — while the maintenance batches, being
//! data writes, invalidate nothing.

use beas_access::{AccessConstraint, AccessSchema};
use beas_common::{ColumnDef, DataType, ResourceQuota, Row, TableSchema, Value};
use beas_core::BeasSystem;
use beas_service::QueryService;
use beas_storage::Database;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Bounded under the access schema: distinct regions of bank calls.
const COVERED: &str = "select distinct call.region from call, business \
    where business.type = 'bank' and business.region = 'r0' \
    and business.pnum = call.pnum and call.date = '2016-07-04'";

/// Bag-sensitive SUM: not covered, runs on the baseline path.
const UNCOVERED: &str = "select call.region, sum(call.duration) as total from call, business \
    where business.type = 'bank' and business.region = 'r0' \
    and business.pnum = call.pnum and call.date = '2016-07-04' \
    group by call.region order by call.region";

/// The deterministic starting instance (same shape as the core system
/// tests: 50 calls over 10 subscribers, half of them banks).
fn build_system() -> BeasSystem {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "call",
            vec![
                ColumnDef::new("pnum", DataType::Str),
                ColumnDef::new("recnum", DataType::Str),
                ColumnDef::new("date", DataType::Date),
                ColumnDef::new("region", DataType::Str),
                ColumnDef::new("duration", DataType::Int),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "business",
            vec![
                ColumnDef::new("pnum", DataType::Str),
                ColumnDef::new("type", DataType::Str),
                ColumnDef::new("region", DataType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    for i in 0..50 {
        db.insert(
            "call",
            vec![
                Value::str(format!("p{}", i % 10)),
                Value::str(format!("r{i}")),
                Value::str("2016-07-04"),
                Value::str(if i % 2 == 0 { "east" } else { "west" }),
                Value::Int(i),
            ],
        )
        .unwrap();
    }
    for i in 0..10 {
        db.insert(
            "business",
            vec![
                Value::str(format!("p{i}")),
                Value::str(if i % 2 == 0 { "bank" } else { "shop" }),
                Value::str("r0"),
            ],
        )
        .unwrap();
    }
    let schema = AccessSchema::from_constraints(vec![
        AccessConstraint::new("call", &["pnum", "date"], &["recnum", "region"], 500).unwrap(),
        AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
    ]);
    BeasSystem::with_schema(db, schema).unwrap()
}

/// One deterministic maintenance batch: batches alternate between adding a
/// new bank with calls in a brand-new region (which changes both query
/// answers) and deleting an earlier batch's calls (which changes them
/// back).  `salt` varies the row contents between proptest cases.
#[derive(Debug, Clone)]
enum Batch {
    AddBankWithCalls { tag: u64, calls: u64 },
    DeleteCallsOfTag { tag: u64 },
}

fn batches(count: u64, salt: u64) -> Vec<Batch> {
    (0..count)
        .map(|i| {
            if i % 2 == 0 {
                Batch::AddBankWithCalls {
                    tag: salt * 1000 + i,
                    calls: 1 + (salt + i) % 3,
                }
            } else {
                Batch::DeleteCallsOfTag {
                    tag: salt * 1000 + i - 1,
                }
            }
        })
        .collect()
}

/// A primitive write both worlds (the service and the serial replay
/// system) execute identically — same calls, same order, hence the same
/// generation sequence.
#[derive(Debug, Clone)]
enum WriteOp {
    Insert(&'static str, Vec<Row>),
    DeleteCallsWithRegion(String),
}

/// The primitive writes of one batch.
fn batch_ops(batch: &Batch) -> Vec<WriteOp> {
    match batch {
        Batch::AddBankWithCalls { tag, calls } => {
            let bank = vec![vec![
                Value::str(format!("w{tag}")),
                Value::str("bank"),
                Value::str("r0"),
            ]];
            let rows: Vec<Row> = (0..*calls)
                .map(|c| {
                    vec![
                        Value::str(format!("w{tag}")),
                        Value::str(format!("wrec{tag}_{c}")),
                        Value::str("2016-07-04"),
                        Value::str(format!("wregion{tag}")),
                        Value::Int((*tag % 97) as i64 + c as i64),
                    ]
                })
                .collect();
            vec![
                WriteOp::Insert("business", bank),
                WriteOp::Insert("call", rows),
            ]
        }
        Batch::DeleteCallsOfTag { tag } => {
            vec![WriteOp::DeleteCallsWithRegion(format!("wregion{tag}"))]
        }
    }
}

/// Serially replay the batches on an identical system, recording the
/// expected answers of both queries at every generation passed through.
fn expected_by_generation(batch_list: &[Batch]) -> HashMap<u64, (Vec<Row>, Vec<Row>)> {
    let mut system = build_system();
    let mut expected = HashMap::new();
    let record = |system: &BeasSystem, map: &mut HashMap<u64, (Vec<Row>, Vec<Row>)>| {
        let covered = system.execute_sql(COVERED).unwrap().rows;
        let uncovered = system.execute_sql(UNCOVERED).unwrap().rows;
        map.insert(system.database().generation(), (covered, uncovered));
    };
    record(&system, &mut expected);
    for batch in batch_list {
        // every op publishes one snapshot, so every post-op generation is
        // observable by a racing reader and needs its expected answers
        for op in batch_ops(batch) {
            match op {
                WriteOp::Insert(table, rows) => {
                    system.insert_rows(table, rows).unwrap();
                }
                WriteOp::DeleteCallsWithRegion(region) => {
                    system
                        .delete_rows("call", |r| r[3] == Value::str(&region))
                        .unwrap();
                }
            }
            record(&system, &mut expected);
        }
    }
    expected
}

/// The stress harness: `readers` sessions iterate mixed bounded/baseline
/// queries while one writer applies `batch_list`; every observed answer
/// must equal the serial replay at its observed generation.  Returns
/// (covered runs, uncovered runs) for the cache accounting.
fn run_stress(readers: usize, min_iterations: usize, batch_list: &[Batch]) -> (u64, u64) {
    let expected = expected_by_generation(batch_list);
    let service = QueryService::new(build_system());
    let done = AtomicBool::new(false);
    let stats_before = service.plan_cache_stats();
    assert_eq!(stats_before.lookups(), 0);

    let (covered_runs, uncovered_runs) = std::thread::scope(|s| {
        let service_ref = &service;
        let done_ref = &done;
        let expected_ref = &expected;
        let mut handles = Vec::new();
        for reader in 0..readers {
            handles.push(s.spawn(move || {
                let session = service_ref.session(ResourceQuota::unlimited());
                let mut counts = (0u64, 0u64);
                let mut iterations = 0usize;
                let mut last_generation = 0u64;
                // run at least `min_iterations`, and keep going until the
                // writer finishes so late generations are observed too
                while iterations < min_iterations || !done_ref.load(Ordering::Acquire) {
                    // alternate bounded and baseline per iteration, offset
                    // by the reader index so both run concurrently
                    let (sql, is_covered) = if (iterations + reader).is_multiple_of(2) {
                        (COVERED, true)
                    } else {
                        (UNCOVERED, false)
                    };
                    let out = session.execute(sql).unwrap();
                    if is_covered {
                        counts.0 += 1;
                    } else {
                        counts.1 += 1;
                    }
                    assert!(
                        out.generation >= last_generation,
                        "snapshot generations must be monotone per session"
                    );
                    last_generation = out.generation;
                    let (expect_covered, expect_uncovered) = expected_ref
                        .get(&out.generation)
                        .unwrap_or_else(|| panic!("unknown generation {}", out.generation));
                    let rows = out.answer.expect("admitted").rows;
                    let expect = if is_covered {
                        expect_covered
                    } else {
                        expect_uncovered
                    };
                    assert_eq!(
                        &rows, expect,
                        "reader {reader} at generation {} must match the serial replay",
                        out.generation
                    );
                    iterations += 1;
                }
                counts
            }));
        }
        // the writer races the readers, pausing briefly between batches so
        // several generations are actually observed
        let writer = s.spawn(move || {
            for batch in batch_list {
                for op in batch_ops(batch) {
                    match op {
                        WriteOp::Insert(table, rows) => {
                            service_ref.insert_rows(table, rows).unwrap();
                        }
                        WriteOp::DeleteCallsWithRegion(region) => {
                            service_ref
                                .delete_rows("call", |r| r[3] == Value::str(&region))
                                .unwrap();
                        }
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done_ref.store(true, Ordering::Release);
        });
        writer.join().expect("writer panicked");
        let mut covered = 0u64;
        let mut uncovered = 0u64;
        for h in handles {
            let (c, u) = h.join().expect("reader panicked");
            covered += c;
            uncovered += u;
        }
        (covered, uncovered)
    });

    // After the race, the published snapshot must be structurally sound:
    // tables, every constraint index against its table, and the shared
    // plan cache (debug builds only — the validators are compiled out of
    // plain release builds).
    #[cfg(debug_assertions)]
    service.snapshot().check_invariants().unwrap();

    // Plan-cache accounting across all sessions: every submission —
    // covered or not — performs exactly one acquisition (admission and
    // execution share the prepared query).  Every lookup must be counted
    // as a hit or a miss — no lost updates under the race.
    let stats = service.plan_cache_stats();
    let expected_lookups = covered_runs + uncovered_runs;
    assert_eq!(
        stats.lookups(),
        expected_lookups,
        "hits {} + misses {} must equal the {} prepare calls the sessions made",
        stats.hits,
        stats.misses,
        expected_lookups
    );
    assert!(stats.hits > 0, "repeated shapes must hit the cache");
    // Data writes invalidate no plan: however many batches were published,
    // each of the two shapes was prepared once — or once per session that
    // raced the first preparation — and never again.
    assert_eq!(stats.invalidations, 0, "{stats}");
    assert!(stats.misses <= 2 * readers as u64, "{stats}");
    assert_eq!(
        service.metrics().maintenance_batches,
        // AddBankWithCalls publishes two snapshots (business, then calls)
        batch_list
            .iter()
            .map(|b| match b {
                Batch::AddBankWithCalls { .. } => 2,
                Batch::DeleteCallsOfTag { .. } => 1,
            })
            .sum::<u64>()
    );
    let m = service.metrics();
    assert_eq!(m.decided_bounded, covered_runs);
    assert_eq!(m.decided_baseline, uncovered_runs);
    assert_eq!(m.quota_trips + m.errors + m.admission_rejections, 0);
    assert_eq!(m.latency_samples, covered_runs + uncovered_runs);
    (covered_runs, uncovered_runs)
}

/// The acceptance scenario: 4 concurrent sessions, mixed bounded/baseline
/// queries, a writer applying maintenance batches — every result
/// bit-identical to the serial replay at its snapshot generation.
#[test]
fn four_sessions_race_a_writer_with_snapshot_consistent_answers() {
    let batch_list = batches(6, 7);
    let (covered, uncovered) = run_stress(4, 20, &batch_list);
    assert!(covered >= 40 && uncovered >= 40, "{covered}/{uncovered}");
}

/// Heavier reader fan-out on a shorter write history.
#[test]
fn eight_sessions_share_one_service() {
    let batch_list = batches(2, 3);
    run_stress(8, 8, &batch_list);
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig { cases: 6, ..Default::default() })]

    /// Randomized write histories (batch count, contents) under racing
    /// readers: the snapshot-consistency contract must hold for every
    /// history, not just the handcrafted ones.
    #[test]
    fn readers_racing_random_write_histories_agree_with_serial_replay(
        salt in 1u64..500,
        batch_count in 1u64..5,
    ) {
        let batch_list = batches(batch_count, salt);
        run_stress(4, 6, &batch_list);
    }
}
