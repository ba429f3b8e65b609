//! Kernel-isolating micro-benchmarks: one fetch through a constraint index,
//! the columnar kernels against the row-at-a-time reference over the same
//! queries, and one pipeline with per-operator timing off and on.  Whole
//! queries and service submissions are measured layer by layer by the
//! closed-loop benchmark (`beas_benchmark --trace 1`), not here.

use beas_bench::BenchEnv;
use beas_common::Value;
use beas_engine::{Engine, ExecProfile};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn micro(c: &mut Criterion) {
    let env = BenchEnv::prepare(2);
    let mut group = c.benchmark_group("micro_ops");
    group.sample_size(20);

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

    // Columnar-kernel path vs the row-at-a-time reference over the same
    // queries and data.  These pinned pairs isolate the delta the
    // differential harness (tests/vectorized_semantics.rs) proves is
    // answer-invisible.  The row-vs-vectorized numbers are recorded in
    // crates/bench/README.md.
    {
        let vectorized = Engine::default().with_exec_profile(ExecProfile::Vectorized);
        let rowpath = Engine::default().with_exec_profile(ExecProfile::RowAtATime);
        let cases: [(&str, String); 3] = [
            (
                "scan_filter",
                "select recnum from call where region = 'east'".into(),
            ),
            ("hash_join_q1", env.q1()),
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
    // level Off vs Timing.  The off run shows what one branch per pull
    // costs when timing is disabled; the timing run documents what full
    // per-operator clocks cost.
    {
        let engine = Engine::default();
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

    group.finish();
}

criterion_group!(benches, micro);
criterion_main!(benches);
