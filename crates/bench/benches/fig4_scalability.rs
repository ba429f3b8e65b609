//! Criterion benchmark behind Fig. 4: Q1 at growing scale factors, BEAS vs
//! the conventional engine.  The paper's series is flat against growing; here
//! BEAS's cost stays within Q1's deduced bound, which does not depend on
//! `|D|`, but grows below it, since TLC's generator grows Q1's business
//! groups with the data (`fig4_report` prints the tuples).

use beas_bench::BenchEnv;
use beas_engine::Engine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_scalability_q1");
    group.sample_size(10);
    for scale in [1u32, 2, 4, 8] {
        let env = BenchEnv::prepare(scale);
        let q1 = env.q1();
        group.bench_with_input(BenchmarkId::new("beas", scale), &scale, |b, _| {
            b.iter(|| black_box(env.system.execute_sql(black_box(&q1)).unwrap().rows.len()))
        });
        let engine = Engine::default();
        group.bench_with_input(BenchmarkId::new("engine", scale), &scale, |b, _| {
            b.iter(|| {
                black_box(
                    engine
                        .run(&env.baseline_db, black_box(&q1))
                        .unwrap()
                        .rows
                        .len(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, fig4);
criterion_main!(benches);
