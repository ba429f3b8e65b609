//! The committed way to read what a fetch step costs: the ten covered TLC
//! queries on a warm plan at scale 16, each timed through the whole prepared
//! execution and through its fetch steps alone, next to the index probe the
//! steps are built around.  The only assertions are about answers — rows and
//! `tuples_accessed` must equal the row engine's — never about time.
//!
//! `cargo test --release --test fetch_cost -- --nocapture`

use beas::core::{execute_ctx_with, generate_bounded_plan, Checker, KeySource, QueryGraph};
use beas::engine::ExecProfile;
use beas::obs::clock;
use beas::prelude::*;
use beas::sql::{parse_select, Binder};
use std::hint::black_box;

const SCALE: u32 = 16;
const RUNS: u32 = 2_000;
const PROBES: u32 = 50_000;

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows.dedup();
    rows
}

/// Microseconds per call of `f`, over `runs` calls.
fn micros_per(runs: u32, mut f: impl FnMut()) -> f64 {
    let start = clock::now();
    for _ in 0..runs {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(runs)
}

#[test]
fn cost_of_a_fetch_step() {
    let db = beas::tlc::generate(&beas::tlc::TlcConfig::at_scale(SCALE)).unwrap();
    let system = BeasSystem::with_schema(db, beas::tlc::tlc_access_schema()).unwrap();
    let engine = Engine::default().with_exec_profile(ExecProfile::RowAtATime);
    println!(
        "{:<4} {:>7} {:>14} {:>11} {:>13} {:>9}",
        "", "tuples", "execute us", "fetch us", "ns per tuple", "probe ns"
    );
    for q in beas::tlc::all_queries()
        .into_iter()
        .filter(|q| q.expect_covered)
    {
        let prepared = system.prepare(&q.sql).unwrap();
        let outcome = system.execute_prepared(&prepared, None).unwrap();
        let baseline = engine.run(system.database(), &q.sql).unwrap();
        assert_eq!(sorted(outcome.rows), sorted(baseline.rows), "{}", q.id);

        // the fetch steps alone, on a plan built the way the system builds it
        let query = Binder::new(system.database())
            .bind(&parse_select(&q.sql).unwrap())
            .unwrap();
        let graph = QueryGraph::build(&query).unwrap();
        let coverage = Checker::new(system.access_schema()).check(&query, &graph);
        let plan = generate_bounded_plan(&query, &graph, &coverage).unwrap();
        let fetch = || {
            let (indexes, config) = (system.indexes(), system.fetch_config());
            execute_ctx_with(&plan, &query, &graph, indexes, config, None).unwrap()
        };
        let tuples = fetch().tuples_accessed;
        assert_eq!(tuples, outcome.tuples_accessed, "{}", q.id);

        let execute_us = micros_per(RUNS, || {
            black_box(system.execute_prepared(&prepared, None).unwrap());
        });
        let fetch_us = micros_per(RUNS, || {
            black_box(fetch());
        });
        // one probe of the first step's index, by its (constant) key
        let first = &plan.fetches[0];
        let key: Vec<Value> = first
            .keys
            .iter()
            .map(|k| match k {
                KeySource::Constant(v) => v.clone(),
                other => panic!("{}: first step keyed by {other}", q.id),
            })
            .collect();
        let key = beas::common::index_key(&key);
        let index = system.indexes().for_constraint(&first.constraint).unwrap();
        let probe_ns = 1e3
            * micros_per(PROBES, || {
                black_box(index.fetch(black_box(&key)));
            });
        println!(
            "{:<4} {:>7} {:>14.2} {:>11.2} {:>13.0} {:>9.0}",
            q.id,
            tuples,
            execute_us,
            fetch_us,
            fetch_us * 1e3 / tuples.max(1) as f64,
            probe_ns
        );
    }
}
