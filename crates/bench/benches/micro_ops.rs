//! Micro-benchmarks of the individual BEAS components: coverage checking,
//! bounded plan generation, single fetches through a constraint index,
//! access-schema discovery and conformance checking — plus the baseline
//! executor's hot paths (scan, join, distinct, sort+limit) over the shared
//! pipelined row representation.

use beas_access::{check_conformance, discover, DiscoveryConfig};
use beas_bench::BenchEnv;
use beas_common::Value;
use beas_engine::{Engine, ExecProfile, OptimizerProfile};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn micro(c: &mut Criterion) {
    let env = BenchEnv::prepare(2);
    let q1 = env.q1();
    let mut group = c.benchmark_group("micro_ops");
    group.sample_size(20);

    group.bench_function("be_checker_q1", |b| {
        b.iter(|| black_box(env.system.check(black_box(&q1)).unwrap().covered))
    });
    group.bench_function("bounded_plan_explain_q1", |b| {
        b.iter(|| black_box(env.system.explain(black_box(&q1)).unwrap().len()))
    });
    group.bench_function("budget_check_q1", |b| {
        b.iter(|| {
            black_box(
                env.system
                    .can_answer_within(black_box(&q1), 50_000_000)
                    .unwrap(),
            )
        })
    });

    // A single fetch through ψ3's index (business by type + region).
    let psi3 = env
        .system
        .access_schema()
        .for_table("business")
        .into_iter()
        .find(|c| c.x.contains(&"type".to_string()))
        .expect("ψ3 present")
        .clone();
    let key = vec![Value::str("bank"), Value::str("east")];
    group.bench_function("constraint_index_fetch", |b| {
        b.iter(|| {
            black_box(
                env.system
                    .indexes()
                    .fetch(&psi3, black_box(&key))
                    .unwrap()
                    .len(),
            )
        })
    });

    group.bench_function("conformance_check_full_schema", |b| {
        b.iter(|| {
            black_box(
                check_conformance(env.system.database(), env.system.access_schema())
                    .unwrap()
                    .conforms(),
            )
        })
    });

    let workload = beas_tlc::workload();
    group.bench_function("discovery_from_workload", |b| {
        b.iter(|| {
            black_box(
                discover(
                    env.system.database(),
                    &workload,
                    &DiscoveryConfig::default(),
                )
                .unwrap()
                .0
                .len(),
            )
        })
    });

    // Baseline-executor hot paths over the pipelined row representation:
    // these are the operators the `RowRef` refactor targets (no full-table
    // `to_vec` on the scan path, segment-concatenation joins, top-k sort
    // under limit, clone-free distinct).
    let run = |sql: &str| {
        let (_, result) = env.run_baseline(OptimizerProfile::PgLike, sql);
        result.rows.len()
    };
    group.bench_function("baseline_scan_filter", |b| {
        b.iter(|| black_box(run("select recnum from call where region = 'east'")))
    });
    // The pull-based pipeline's headline win: a LIMIT under a filter stops
    // the scan after ~20 rows instead of reading the whole call table.
    group.bench_function("baseline_scan_filter_limit", |b| {
        b.iter(|| {
            black_box(run(
                "select recnum from call where region = 'east' limit 10",
            ))
        })
    });
    group.bench_function("baseline_hash_join_q1", |b| {
        let q1 = env.q1();
        b.iter(|| black_box(run(&q1)))
    });
    group.bench_function("baseline_distinct", |b| {
        b.iter(|| black_box(run("select distinct region from call")))
    });
    group.bench_function("baseline_sort_limit_topk", |b| {
        b.iter(|| {
            black_box(run(
                "select recnum, duration from call order by duration desc limit 10",
            ))
        })
    });

    // Columnar-kernel path vs the row-at-a-time reference over the same
    // queries and data.  `baseline_*` above already runs the default
    // (vectorized) profile; these pinned pairs isolate the delta the
    // differential harness (tests/vectorized_semantics.rs) proves is
    // answer-invisible.  The row-vs-vectorized numbers are recorded in
    // crates/bench/README.md.
    {
        let vectorized =
            Engine::new(OptimizerProfile::PgLike).with_exec_profile(ExecProfile::Vectorized);
        let rowpath =
            Engine::new(OptimizerProfile::PgLike).with_exec_profile(ExecProfile::RowAtATime);
        let q1 = env.q1();
        let cases: [(&str, String); 3] = [
            (
                "scan_filter",
                "select recnum from call where region = 'east'".into(),
            ),
            ("hash_join_q1", q1),
            ("distinct", "select distinct region from call".into()),
        ];
        for (name, sql) in &cases {
            group.bench_function(format!("vectorized_{name}"), |b| {
                b.iter(|| black_box(vectorized.run(&env.baseline_db, sql).unwrap().rows.len()))
            });
            group.bench_function(format!("rowpath_{name}"), |b| {
                b.iter(|| black_box(rowpath.run(&env.baseline_db, sql).unwrap().rows.len()))
            });
        }
    }

    // Trace-overhead pair: the identical Q1 pipeline with the global trace
    // level Off vs Timing.  The off path must stay within the bench_gate
    // noise floor of the committed baseline — per-operator timing is one
    // branch per pull when disabled — while the timing run documents what
    // full per-operator clocks cost.
    {
        let engine = Engine::new(OptimizerProfile::PgLike);
        let q1 = env.q1();
        for (name, level) in [
            ("trace_off_q1_pipeline", beas_obs::TraceLevel::Off),
            ("trace_timing_q1_pipeline", beas_obs::TraceLevel::Timing),
        ] {
            group.bench_function(name, |b| {
                let previous = beas_obs::set_trace_level(level);
                b.iter(|| black_box(engine.run(&env.baseline_db, &q1).unwrap().rows.len()));
                beas_obs::set_trace_level(previous);
            });
        }
    }

    // Service-level paths: admission control (a cache-served coverage
    // check plus the routing decision) and N concurrent sessions sharing
    // one QueryService.  The concurrent benches measure the whole session
    // path — snapshot pinning, admission, quota tracking, execution — and
    // spawn one thread per session per iteration, so they include
    // thread-scope overhead (see crates/bench/README.md).
    {
        use beas_common::ResourceQuota;
        use beas_service::QueryService;
        let service = QueryService::new(env.system.fork());
        let q1 = env.q1();
        group.bench_function("service_admission_q1", |b| {
            let session = service.session(ResourceQuota::unlimited().with_max_tuples(50_000_000));
            b.iter(|| black_box(session.admit(&q1).unwrap().admitted()))
        });
        // 8 queries per session per iteration: amortizes the per-thread
        // spawn cost (~50µs, the dominant jitter source on a single-core
        // host) so the measurement tracks the per-submission service path.
        for sessions in [1usize, 4] {
            let service = &service;
            let q1 = &q1;
            group.bench_function(format!("service_concurrent_q1_{sessions}s"), |b| {
                b.iter(|| {
                    std::thread::scope(|s| {
                        let handles: Vec<_> = (0..sessions)
                            .map(|_| {
                                let session = service.session(ResourceQuota::unlimited());
                                s.spawn(move || {
                                    (0..8)
                                        .map(|_| {
                                            session.execute(q1).unwrap().answer.unwrap().rows.len()
                                        })
                                        .sum::<usize>()
                                })
                            })
                            .collect();
                        black_box(
                            handles
                                .into_iter()
                                .map(|h| h.join().expect("session thread"))
                                .sum::<usize>(),
                        )
                    })
                })
            });
        }
        // 4 reader sessions racing one copy-on-write maintenance batch:
        // the writer cost is the batch's own copy-on-write repairs plus an
        // O(handles) fork publish — untouched segments and index shards
        // are shared with the previous snapshot, not copied.
        group.bench_function("service_concurrent_mixed_rw_4s", |b| {
            let service = &service;
            let q1 = &q1;
            b.iter(|| {
                std::thread::scope(|s| {
                    let readers: Vec<_> = (0..4)
                        .map(|_| {
                            let session = service.session(ResourceQuota::unlimited());
                            s.spawn(move || session.execute(q1).unwrap().answer.unwrap().rows.len())
                        })
                        .collect();
                    service
                        .delete_rows("call", |_| false) // no-op batch: pure fork+publish
                        .unwrap();
                    black_box(
                        readers
                            .into_iter()
                            .map(|h| h.join().expect("session thread"))
                            .sum::<usize>(),
                    )
                })
            })
        });
    }

    // Publishing a snapshot is an O(handles) structural clone: its cost is
    // independent of how many rows or index entries the system holds.
    group.bench_function("fork_publish", |b| {
        b.iter(|| black_box(env.system.fork().database().generation()))
    });

    group.finish();
}

criterion_group!(benches, micro);
criterion_main!(benches);
