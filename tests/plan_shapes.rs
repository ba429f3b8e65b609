//! The plan cache's oracle: one plan per query *shape*, bound to each
//! statement's literal values, must be indistinguishable — answers, order,
//! tuples accessed, deduced bound, errors, and the prepared query itself —
//! from preparing every statement on its own, and both must agree with the
//! row-at-a-time engine.
//!
//! The plans that were only right for *some* parameter vectors — which is
//! what sharing a plan across vectors cannot tolerate — have their
//! differential tests in `end_to_end.rs`.

use beas::engine::ExecProfile;
use beas::prelude::*;
use beas::tlc::generator::{cell_id, date, pnum, vocab};
use beas::tlc::TlcConfig;

const SCALE: u32 = 2;
const DRAWS: usize = 100;

/// SplitMix64: the draws only have to be spread and repeatable.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }

    /// A subscriber, a tower and a day the generated data holds.
    fn pnum(&mut self) -> String {
        pnum(self.below(TlcConfig::at_scale(SCALE).customers()))
    }

    fn cell(&mut self) -> String {
        cell_id(self.below(TlcConfig::at_scale(SCALE).towers()))
    }

    fn day(&mut self, days: usize) -> String {
        date(self.below(days) as u8)
    }
}

/// A parameterised statement: `build` draws its literals from the domains
/// of the generated data, so most answers are non-empty.
struct Shape {
    id: &'static str,
    covered: bool,
    /// ORDER BY names a total order: rows compare position by position.
    total_order: bool,
    build: fn(&mut Rng) -> String,
}

/// The ten covered TLC templates (Q1–Q10 of `beas::tlc::queries`) and three
/// shapes no access constraint covers.
const SHAPES: [Shape; 13] = [
    Shape {
        id: "Q1",
        covered: true,
        total_order: false,
        build: |r| {
            let btype = r.pick(&vocab::BUSINESS_TYPES);
            let region = r.pick(&vocab::REGIONS);
            let pid = 1 + r.below(vocab::PLAN_COUNT as usize) as i64;
            beas::tlc::example2_query(btype, region, pid, &r.day(10))
        },
    },
    Shape {
        id: "Q2",
        covered: true,
        total_order: false,
        build: |r| {
            format!(
                "SELECT DISTINCT recnum, region FROM call WHERE pnum = '{}' AND date = '{}'",
                r.pnum(),
                r.day(10)
            )
        },
    },
    Shape {
        id: "Q3",
        covered: true,
        total_order: false,
        build: |r| {
            format!(
                "SELECT DISTINCT c.city, d.brand, d.five_g FROM business b, customer c, device d \
                 WHERE b.type = '{}' AND b.region = '{}' AND b.pnum = c.pnum AND c.pnum = d.pnum",
                r.pick(&vocab::BUSINESS_TYPES),
                r.pick(&vocab::REGIONS)
            )
        },
    },
    Shape {
        id: "Q4",
        covered: true,
        total_order: false,
        build: |r| {
            format!(
                "SELECT COUNT(DISTINCT c.pnum) AS overdue FROM customer c, billing bl \
                 WHERE c.region = '{}' AND c.segment = '{}' \
                 AND c.pnum = bl.pnum AND bl.year = {} AND bl.paid = FALSE",
                r.pick(&vocab::REGIONS),
                r.pick(&vocab::SEGMENTS),
                vocab::YEAR
            )
        },
    },
    Shape {
        id: "Q5",
        covered: true,
        total_order: false,
        build: |r| {
            format!(
                "SELECT s.sms_type, COUNT(DISTINCT s.recnum) AS receivers FROM business b, sms s \
                 WHERE b.type = '{}' AND b.region = '{}' AND b.pnum = s.pnum AND s.date = '{}' \
                 GROUP BY s.sms_type ORDER BY receivers DESC",
                r.pick(&vocab::BUSINESS_TYPES),
                r.pick(&vocab::REGIONS),
                r.day(4)
            )
        },
    },
    Shape {
        id: "Q6",
        covered: true,
        total_order: true,
        build: |r| {
            format!(
                "SELECT u.app_category, COUNT(DISTINCT u.pnum) AS users \
                 FROM business b, data_usage u \
                 WHERE b.type = '{}' AND b.region = '{}' AND b.pnum = u.pnum AND u.date = '{}' \
                 GROUP BY u.app_category ORDER BY users DESC, u.app_category",
                r.pick(&vocab::BUSINESS_TYPES),
                r.pick(&vocab::REGIONS),
                r.day(4)
            )
        },
    },
    Shape {
        id: "Q7",
        covered: true,
        total_order: false,
        build: |r| {
            format!(
                "SELECT DISTINCT call.pnum, t.technology, r.province \
                 FROM call, cell_tower t, region_info r \
                 WHERE call.cell_id = '{}' AND call.date = '{}' \
                 AND call.cell_id = t.cell_id AND t.region = r.region",
                r.cell(),
                r.day(10)
            )
        },
    },
    Shape {
        id: "Q8",
        covered: true,
        total_order: false,
        build: |r| {
            format!(
                "SELECT DISTINCT b.pnum, k.category, k.severity FROM business b, complaint k \
                 WHERE b.type = '{}' AND b.region = '{}' AND b.pnum = k.pnum AND k.date = '{}' \
                 AND k.severity >= {} AND k.resolved = FALSE",
                r.pick(&vocab::BUSINESS_TYPES),
                r.pick(&vocab::REGIONS),
                r.day(1),
                1 + r.below(4)
            )
        },
    },
    Shape {
        id: "Q9",
        covered: true,
        total_order: false,
        build: |r| {
            format!(
                "SELECT DISTINCT pc.plan_name, pc.tier \
                 FROM business b, package p, plan_catalog pc \
                 WHERE b.type = '{}' AND b.region = '{}' \
                 AND b.pnum = p.pnum AND p.year = {} AND p.pid = pc.pid",
                r.pick(&vocab::BUSINESS_TYPES),
                r.pick(&vocab::REGIONS),
                vocab::YEAR
            )
        },
    },
    Shape {
        id: "Q10",
        covered: true,
        total_order: true,
        build: |r| {
            format!(
                "SELECT d.brand, COUNT(DISTINCT d.pnum) AS owners FROM customer c, device d \
                 WHERE c.region = '{}' AND c.segment = '{}' AND c.pnum = d.pnum \
                 AND d.five_g = TRUE GROUP BY d.brand ORDER BY owners DESC, d.brand",
                r.pick(&vocab::REGIONS),
                r.pick(&vocab::SEGMENTS)
            )
        },
    },
    Shape {
        id: "U-scan",
        covered: false,
        total_order: true,
        build: |r| {
            format!(
                "SELECT pnum, recnum, duration FROM call WHERE duration >= {} \
                 AND call_type IN ('{}', 'local') ORDER BY duration DESC, pnum, recnum LIMIT 10",
                3000 + r.below(500),
                r.pick(&["long_distance", "international"])
            )
        },
    },
    Shape {
        id: "U-join",
        covered: false,
        total_order: false,
        build: |r| {
            format!(
                "SELECT c.city, b.name, b.vip_level FROM customer c, business b \
                 WHERE c.pnum = b.pnum AND c.credit_score >= {} AND b.employees BETWEEN {} AND {}",
                300 + r.below(500),
                1 + r.below(900),
                1000 + r.below(900)
            )
        },
    },
    Shape {
        id: "U-partial-sum",
        covered: false,
        total_order: true,
        build: |r| {
            format!(
                "SELECT call.region, SUM(call.cost) AS spend FROM business b, call \
                 WHERE b.type = '{}' AND b.region = '{}' AND b.pnum = call.pnum \
                 AND call.date = '{}' GROUP BY call.region \
                 HAVING COUNT(*) >= {} ORDER BY call.region",
                r.pick(&vocab::BUSINESS_TYPES),
                r.pick(&vocab::REGIONS),
                r.day(10),
                1 + r.below(3)
            )
        },
    },
];

fn tlc_system() -> BeasSystem {
    let db = beas::tlc::generate(&TlcConfig::at_scale(SCALE)).unwrap();
    BeasSystem::with_schema(db, beas::tlc::tlc_access_schema()).unwrap()
}

/// A system over the same data with a plan cache of its own, empty.
fn fresh(system: &BeasSystem) -> BeasSystem {
    BeasSystem::new(
        system.database().clone(),
        system.access_schema().clone(),
        system.indexes().clone(),
    )
}

fn row_engine() -> Engine {
    Engine::default().with_exec_profile(ExecProfile::RowAtATime)
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
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

#[test]
fn a_warm_shape_cache_answers_like_a_cold_system_and_like_the_row_engine() {
    let warm = tlc_system();
    let engine = row_engine();
    let mut rng = Rng(7);
    let (mut texts, mut non_empty) = (std::collections::HashSet::new(), 0usize);
    for shape in &SHAPES {
        for draw in 0..DRAWS {
            let sql = (shape.build)(&mut rng);
            let label = format!("{} draw {draw}: {sql}", shape.id);
            texts.insert(sql.clone());
            let cold = fresh(&warm);

            // the prepared query: instantiated from the shape's template on
            // one side (all draws but a shape's first), prepared from
            // scratch on the other
            let cached = warm.prepare(&sql).unwrap();
            assert_eq!(cached.covered(), shape.covered, "{label}");
            assert_eq!(*cached, *cold.prepare(&sql).unwrap(), "{label}");

            // the answer
            let got = warm.execute_sql(&sql).unwrap();
            let expected = cold.execute_sql(&sql).unwrap();
            assert_eq!(got.rows, expected.rows, "{label}");
            assert_eq!(got.tuples_accessed, expected.tuples_accessed, "{label}");
            assert_eq!(got.deduced_bound, expected.deduced_bound, "{label}");
            assert_eq!(got.mode, expected.mode, "{label}");
            assert_eq!(got.bounded, shape.covered, "{label}");
            if let Some(bound) = got.deduced_bound {
                assert!(got.tuples_accessed <= bound, "{label}");
            }
            let baseline = engine.run(warm.database(), &sql).unwrap().rows;
            // bounded answers have set semantics; the covered shapes are
            // written so that the conventional answer is a set too
            let baseline = if shape.covered {
                distinct(baseline)
            } else {
                baseline
            };
            if shape.total_order {
                assert_eq!(got.rows, baseline, "{label}");
            } else {
                assert_eq!(sorted(got.rows.clone()), sorted(baseline), "{label}");
            }
            non_empty += usize::from(!got.rows.is_empty());
        }
    }
    assert!(
        non_empty * 2 > SHAPES.len() * DRAWS,
        "only {non_empty} non-empty answers: the draws miss the data"
    );
    // thirteen shapes were planned, once each; every other distinct text
    // was instantiated (again, if the text map was emptied in between)
    let stats = warm.plan_cache_stats();
    assert_eq!(stats.misses as usize, SHAPES.len(), "{stats}");
    assert!(
        stats.shape_hits as usize >= texts.len() - SHAPES.len(),
        "{stats}"
    );
    assert_eq!(
        stats.lookups() as usize,
        2 * SHAPES.len() * DRAWS,
        "{stats}"
    );
    // every text and shape entry re-derived (`--features validate` in
    // release builds)
    #[cfg(any(debug_assertions, feature = "validate"))]
    warm.check_invariants().unwrap();
}

#[test]
fn an_uncastable_key_literal_fails_the_same_way_from_a_cached_shape() {
    let warm = tlc_system();
    let good = "SELECT DISTINCT recnum, region FROM call \
                WHERE pnum = '13800000001' AND date = '2016-07-04'";
    warm.execute_sql(good).unwrap();
    for bad_date in ["2016-7-4", "yesterday", ""] {
        let sql = good.replace("2016-07-04", bad_date);
        let hit = warm.prepare_outcome(&sql).unwrap().1;
        assert_eq!(hit, beas::engine::PlanCacheOutcome::ShapeHit, "{sql}");
        let from_shape = warm.execute_sql(&sql).unwrap_err();
        let from_scratch = fresh(&warm).execute_sql(&sql).unwrap_err();
        assert_eq!(from_shape.kind(), from_scratch.kind(), "{sql}");
        assert_eq!(from_shape.to_string(), from_scratch.to_string(), "{sql}");
        let approx = warm.approximate(&sql, 1_000).unwrap_err();
        assert_eq!(approx.kind(), from_scratch.kind(), "{sql}");
        // and the shape keeps serving the statements it is right for
        assert!(warm.execute_sql(good).is_ok());
    }
}

/// Not an assertion about time — a committed way to read it: the cost of a
/// text the cache has not seen whose shape it has, next to a text hit and a
/// genuine miss.  `cargo test --release --test plan_shapes cost -- --nocapture`.
#[test]
fn cost_of_a_shape_hit() {
    use beas::engine::PlanCacheOutcome;
    use beas::obs::clock;
    let system = tlc_system();
    let q1 = &SHAPES[0];
    let mut rng = Rng(99);
    let mut texts: Vec<String> = (0..4_000).map(|_| (q1.build)(&mut rng)).collect();
    texts.sort();
    texts.dedup();
    assert!(texts.len() >= 1_000, "{} distinct texts", texts.len());
    system.prepare(&texts[0]).unwrap();

    let per_op = |outcome: PlanCacheOutcome, texts: &[String], before: &dyn Fn()| {
        let mut spent = std::time::Duration::ZERO;
        for sql in texts {
            before();
            let start = clock::now();
            let (prepared, got) = system.prepare_outcome(sql).unwrap();
            spent += start.elapsed();
            assert_eq!(got, outcome, "{sql}");
            std::hint::black_box(prepared);
        }
        spent.as_secs_f64() * 1e6 / texts.len() as f64
    };
    let shape_hit = per_op(PlanCacheOutcome::ShapeHit, &texts[1..], &|| {});
    // fewer texts than the text map holds, so none is evicted
    system.clear_plan_cache();
    let cached = &texts[..200];
    cached.iter().for_each(|sql| drop(system.prepare(sql)));
    let text_hit = per_op(PlanCacheOutcome::TextHit, cached, &|| {});
    let miss = per_op(PlanCacheOutcome::Miss, cached, &|| {
        system.clear_plan_cache()
    });
    println!(
        "Q1 prepare over {} texts: text hit {text_hit:.2} us, shape hit {shape_hit:.2} us, \
         miss {miss:.2} us",
        texts.len()
    );
}
