//! Workloads and the seeded scripts that drive them.
//!
//! A script is a list of SQL texts, each with the admission decision it must
//! receive.  The seed decides parameter draws and order only; the program
//! under test sees SQL text and rows, never the seed or a workload name.

use beas::common::{Row, Value};
use beas::tlc::generator::{cell_id, date, pnum, vocab};
use beas::tlc::TlcConfig;

/// SplitMix64.  The benchmark owns its generator so that the same seed
/// yields the same script on every commit, whatever happens to the
/// repository's `rand` stand-in.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.  Drawn as a fraction of `n`, so one seed picks
    /// the same *relative* position in a domain at every data scale.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n.saturating_sub(1))
    }

    /// Uniform in `[lo, hi]`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as usize) as i64
    }

    pub fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Sizes of the parameter domains at one data scale.
#[derive(Debug, Clone, Copy)]
pub struct Domain {
    pub customers: usize,
    pub towers: usize,
}

impl Domain {
    pub fn at_scale(scale: u32) -> Domain {
        let config = TlcConfig::at_scale(scale);
        Domain {
            customers: config.customers(),
            towers: config.towers(),
        }
    }
}

/// One parameter draw: the generator, the domain sizes, and which of a
/// shape's `slots` parameter sets this is.
pub struct Draw<'a> {
    rng: &'a mut Rng,
    domain: Domain,
    slot: usize,
    slots: usize,
}

impl Draw<'_> {
    /// Uniform in `[lo, hi]`, stratified over a shape's parameter sets: set
    /// `slot` of `slots` draws from the `slot`-th of `slots` equal slices of
    /// the range.  The sets of one script then cover the range evenly
    /// whatever the seed, so a threshold that decides how much a query
    /// fetches (a credit score, a fee) costs the same in total under every
    /// seed; independent draws of 16 would move a workload's mean cost by
    /// several per cent from seed to seed.
    fn spread(&mut self, lo: i64, hi: i64) -> i64 {
        let position = (self.slot as f64 + self.rng.unit()) / self.slots as f64;
        lo + ((position * (hi - lo + 1) as f64) as i64).min(hi - lo)
    }

    fn pnum(&mut self) -> String {
        pnum(self.rng.below(self.domain.customers))
    }

    fn cell_id(&mut self) -> String {
        cell_id(self.rng.below(self.domain.towers))
    }

    fn day(&mut self, days: usize) -> String {
        date(self.rng.below(days) as u8)
    }

    /// A business type and a region, not drawn: the 30 pairs hold unequal
    /// numbers of businesses (at scale 1, ten hold none), and which pairs a
    /// seed happened to draw would move a workload's tuples per operation by
    /// several per cent.  The sets of a shape walk the pairs with a stride of
    /// 7, which visits all 30 before repeating; the seed varies everything
    /// else.
    fn biz(&self) -> (&'static str, &'static str) {
        let (types, regions) = (&vocab::BUSINESS_TYPES, &vocab::REGIONS);
        // 6 and 5 are coprime: `pair` determines the two picks and back.
        let pair = self.slot * 7 % (types.len() * regions.len());
        (types[pair % types.len()], regions[pair % regions.len()])
    }
}

/// The generator places a subscriber's calls on the first 10 days of the
/// month, SMS and data-usage records on the first 4, complaints on the first.
const CALL_DAYS: usize = 10;
const USAGE_DAYS: usize = 4;

/// The admission decision a script entry must receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Expect {
    Bounded,
    Approximate,
    Baseline,
    Rejected,
}

impl Expect {
    pub fn name(self) -> &'static str {
        match self {
            Expect::Bounded => "bounded",
            Expect::Approximate => "approximate",
            Expect::Baseline => "baseline",
            Expect::Rejected => "rejected",
        }
    }
}

/// A parameterised query.
pub struct Shape {
    pub id: &'static str,
    /// A lookup whose data access is the same at every scale (the scale
    /// comparison between `covered_hot` and `covered_small` uses these).
    pub point: bool,
    /// Reads `call`, the table `mixed_rw` writes.
    pub reads_call: bool,
    build: fn(&mut Draw) -> String,
}

/// The ten covered TLC shapes (Q1–Q10 of `beas::tlc::queries`), each with
/// every constant a parameter.  Q3, Q4, Q5, Q6, Q8, Q9 and Q10 carry one more
/// range predicate than the built-in text: their key domains hold 5 to 120
/// values, too few for `covered_cold` to outrun a 256-entry plan cache.
pub const COVERED: [Shape; 10] = [
    Shape {
        id: "Q1",
        point: false,
        reads_call: true,
        build: |d| {
            let (btype, region) = d.biz();
            let pid = d.rng.between(1, vocab::PLAN_COUNT);
            beas::tlc::example2_query(btype, region, pid, &d.day(CALL_DAYS))
        },
    },
    Shape {
        id: "Q2",
        point: true,
        reads_call: true,
        build: |d| {
            format!(
                "SELECT DISTINCT recnum, region FROM call WHERE pnum = '{}' AND date = '{}'",
                d.pnum(),
                d.day(CALL_DAYS)
            )
        },
    },
    Shape {
        id: "Q3",
        point: false,
        reads_call: false,
        build: |d| {
            let (btype, region) = d.biz();
            format!(
                "SELECT DISTINCT c.city, d.brand, d.five_g \
                 FROM business b, customer c, device d \
                 WHERE b.type = '{btype}' AND b.region = '{region}' \
                 AND b.pnum = c.pnum AND c.pnum = d.pnum AND c.credit_score >= {}",
                d.spread(300, 849)
            )
        },
    },
    Shape {
        id: "Q4",
        point: false,
        reads_call: false,
        build: |d| {
            format!(
                "SELECT COUNT(DISTINCT c.pnum) AS overdue \
                 FROM customer c, billing bl \
                 WHERE c.region = '{}' AND c.segment = '{}' AND c.credit_score >= {} \
                 AND c.pnum = bl.pnum AND bl.year = {} AND bl.paid = FALSE",
                d.rng.pick(&vocab::REGIONS),
                d.rng.pick(&vocab::SEGMENTS),
                d.spread(300, 849),
                vocab::YEAR
            )
        },
    },
    Shape {
        id: "Q5",
        point: false,
        reads_call: false,
        build: |d| {
            let (btype, region) = d.biz();
            format!(
                "SELECT s.sms_type, COUNT(DISTINCT s.recnum) AS receivers \
                 FROM business b, sms s \
                 WHERE b.type = '{btype}' AND b.region = '{region}' \
                 AND b.pnum = s.pnum AND s.date = '{}' AND s.length <= {} \
                 GROUP BY s.sms_type ORDER BY receivers DESC, s.sms_type",
                d.day(USAGE_DAYS),
                d.spread(1, 319)
            )
        },
    },
    Shape {
        id: "Q6",
        point: false,
        reads_call: false,
        build: |d| {
            let (btype, region) = d.biz();
            format!(
                "SELECT u.app_category, COUNT(DISTINCT u.pnum) AS users \
                 FROM business b, data_usage u \
                 WHERE b.type = '{btype}' AND b.region = '{region}' \
                 AND b.pnum = u.pnum AND u.date = '{}' AND u.sessions >= {} \
                 GROUP BY u.app_category ORDER BY users DESC, u.app_category",
                d.day(USAGE_DAYS),
                d.spread(1, 199)
            )
        },
    },
    Shape {
        id: "Q7",
        point: false,
        reads_call: true,
        build: |d| {
            format!(
                "SELECT DISTINCT call.pnum, t.technology, r.province \
                 FROM call, cell_tower t, region_info r \
                 WHERE call.cell_id = '{}' AND call.date = '{}' \
                 AND call.cell_id = t.cell_id AND t.region = r.region",
                d.cell_id(),
                d.day(CALL_DAYS)
            )
        },
    },
    Shape {
        id: "Q8",
        point: false,
        reads_call: false,
        build: |d| {
            let (btype, region) = d.biz();
            format!(
                "SELECT DISTINCT b.pnum, k.category, k.severity \
                 FROM business b, complaint k \
                 WHERE b.type = '{btype}' AND b.region = '{region}' \
                 AND b.pnum = k.pnum AND k.date = '{}' \
                 AND k.severity >= {} AND k.resolved = FALSE",
                d.day(USAGE_DAYS),
                d.spread(1, 4)
            )
        },
    },
    Shape {
        id: "Q9",
        point: false,
        reads_call: false,
        build: |d| {
            let (btype, region) = d.biz();
            let tenths = d.spread(190, 1_989);
            format!(
                "SELECT DISTINCT pc.plan_name, pc.tier \
                 FROM business b, package p, plan_catalog pc \
                 WHERE b.type = '{btype}' AND b.region = '{region}' \
                 AND b.pnum = p.pnum AND p.year = {} AND p.pid = pc.pid \
                 AND p.monthly_fee <= {}.{}",
                vocab::YEAR,
                tenths / 10,
                tenths % 10
            )
        },
    },
    Shape {
        id: "Q10",
        point: false,
        reads_call: false,
        build: |d| {
            format!(
                "SELECT d.brand, COUNT(DISTINCT d.pnum) AS owners \
                 FROM customer c, device d \
                 WHERE c.region = '{}' AND c.segment = '{}' AND c.credit_score >= {} \
                 AND c.pnum = d.pnum AND d.five_g = TRUE \
                 GROUP BY d.brand ORDER BY owners DESC, d.brand",
                d.rng.pick(&vocab::REGIONS),
                d.rng.pick(&vocab::SEGMENTS),
                d.spread(300, 849)
            )
        },
    },
];

/// A subscriber-profile lookup by `pnum` over tables `mixed_rw` never
/// writes, so its cached plan survives every maintenance batch (Q2's does
/// not: it reads `call`).
const PROFILE: Shape = Shape {
    id: "P1",
    point: true,
    reads_call: false,
    build: |d| {
        format!(
            "SELECT c.name, c.city, c.segment, d.brand, d.model \
             FROM customer c, device d WHERE c.pnum = '{}' AND c.pnum = d.pnum",
            d.pnum()
        )
    },
};

/// Seven shapes no access constraint covers; the service routes them to the
/// conventional engine.
pub const UNCOVERED: [Shape; 7] = [
    Shape {
        id: "U1-scan-filter",
        point: false,
        reads_call: true,
        build: |d| {
            format!(
                "SELECT pnum, recnum, duration FROM call \
                 WHERE duration >= {} AND call_type = '{}'",
                d.spread(3300, 3590),
                d.rng.pick(&["local", "long_distance", "international"])
            )
        },
    },
    Shape {
        id: "U2-scan-filter-limit",
        point: false,
        reads_call: true,
        build: |d| {
            format!(
                "SELECT pnum, recnum, cost FROM call \
                 WHERE region = '{}' AND duration > {} LIMIT 20",
                d.rng.pick(&vocab::REGIONS),
                d.spread(3000, 3500)
            )
        },
    },
    Shape {
        id: "U3-hash-join",
        point: false,
        reads_call: false,
        build: |d| {
            format!(
                "SELECT c.city, b.name, b.vip_level FROM customer c, business b \
                 WHERE c.pnum = b.pnum AND c.credit_score >= {} AND b.employees >= {}",
                d.spread(300, 800),
                d.rng.between(1, 1900)
            )
        },
    },
    Shape {
        id: "U4-distinct",
        point: false,
        reads_call: true,
        build: |d| {
            format!(
                "SELECT DISTINCT region, call_type, network_type FROM call WHERE duration > {}",
                d.spread(5, 3500)
            )
        },
    },
    Shape {
        id: "U5-group-count",
        point: false,
        reads_call: false,
        build: |d| {
            format!(
                "SELECT region, sms_type, COUNT(*) AS n FROM sms \
                 WHERE length > {} GROUP BY region, sms_type",
                d.spread(1, 300)
            )
        },
    },
    Shape {
        id: "U6-top-k",
        point: false,
        reads_call: true,
        build: |d| {
            format!(
                "SELECT pnum, recnum, duration FROM call WHERE date = '{}' \
                 ORDER BY duration DESC, pnum, recnum LIMIT 10",
                d.day(CALL_DAYS)
            )
        },
    },
    Shape {
        id: "U7-partial-sum",
        point: false,
        reads_call: true,
        build: |d| {
            let (btype, region) = d.biz();
            format!(
                "SELECT call.region, SUM(call.cost) AS spend FROM business b, call \
                 WHERE b.type = '{btype}' AND b.region = '{region}' \
                 AND b.pnum = call.pnum AND call.date = '{}' \
                 GROUP BY call.region ORDER BY call.region",
                d.day(CALL_DAYS)
            )
        },
    },
];

/// Uncovered scans of reference tables small enough to fit `mixed_rw`'s
/// tuple budget at every scale.
const SMALL_UNCOVERED: [Shape; 2] = [
    Shape {
        id: "S1-towers",
        point: false,
        reads_call: false,
        build: |d| {
            format!(
                "SELECT cell_id, city, capacity FROM cell_tower \
                 WHERE technology = '{}' AND capacity >= {}",
                d.rng.pick(&["3g", "4g", "5g"]),
                d.spread(200, 1800)
            )
        },
    },
    Shape {
        id: "S2-plans",
        point: false,
        reads_call: false,
        build: |d| {
            format!(
                "SELECT plan_name, monthly_fee FROM plan_catalog \
                 WHERE tier = '{}' AND data_gb >= {}",
                d.rng.pick(&["basic", "plus", "premium"]),
                d.spread(5, 90)
            )
        },
    },
];

/// The reader's tuple budget on `mixed_rw`: above Q2's deduced bound (500)
/// and the reference tables, below the fan-out shapes' bounds (10 000 up)
/// and below `call` at every scale (2 000 rows at scale 1).
pub const MIXED_BUDGET: u64 = 1_000;

/// One submission of a script.
#[derive(Debug, Clone)]
pub struct Entry {
    pub sql: String,
    pub shape: &'static str,
    pub expect: Expect,
    pub point: bool,
    /// The answer may change while the writer runs; checked after quiescing.
    pub volatile: bool,
    /// The expected answer comes from the conventional engine before the
    /// run.  Entries without one are checked for repeating their own first
    /// answer.
    pub oracle: bool,
}

/// `sets` parameter sets of each of `shapes`.
fn draw_sets(
    shapes: &[&Shape],
    sets: usize,
    rng: &mut Rng,
    domain: Domain,
    expect: Expect,
    writes: bool,
) -> Vec<Entry> {
    let mut entries = Vec::with_capacity(shapes.len() * sets);
    for shape in shapes {
        for slot in 0..sets {
            let mut draw = Draw {
                rng,
                domain,
                slot,
                slots: sets,
            };
            entries.push(Entry {
                sql: (shape.build)(&mut draw),
                shape: shape.id,
                expect,
                point: shape.point,
                volatile: writes && shape.reads_call,
                oracle: true,
            });
        }
    }
    entries
}

/// What drives a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Covered shapes over few parameter sets: the plan cache always hits.
    CoveredRepeat,
    /// Covered shapes over the full parameter domain: it never does.
    CoveredCold,
    /// Uncovered shapes through the conventional engine.
    Uncovered,
    /// One budgeted reader beside one writer.
    Mixed,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Runs at the large data scale (the small one otherwise).
    pub large: bool,
}

/// TLC scale factors: about 93 000 rows and 23 000 rows.  The small one is
/// not smaller still because a (region, segment) group then holds a handful
/// of customers, and which of them pass a drawn credit-score threshold moves
/// `tuples_per_op` by 7 % from seed to seed.
pub const LARGE_SCALE: u32 = 16;
pub const SMALL_SCALE: u32 = 4;
/// Every workload's scale under `--quick`.
pub const QUICK_SCALE: u32 = 1;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "covered_hot",
        kind: Kind::CoveredRepeat,
        large: true,
    },
    Workload {
        name: "covered_small",
        kind: Kind::CoveredRepeat,
        large: false,
    },
    Workload {
        name: "covered_cold",
        kind: Kind::CoveredCold,
        large: true,
    },
    Workload {
        name: "uncovered_scan",
        kind: Kind::Uncovered,
        large: true,
    },
    Workload {
        name: "mixed_rw",
        kind: Kind::Mixed,
        large: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn scale(&self, quick: bool) -> u32 {
        match (quick, self.large) {
            (true, _) => QUICK_SCALE,
            (false, true) => LARGE_SCALE,
            (false, false) => SMALL_SCALE,
        }
    }

    /// Reader sessions; `mixed_rw` gives its second thread to the writer.
    pub fn readers(&self) -> usize {
        match self.kind {
            Kind::Mixed => 1,
            _ => 2,
        }
    }
}

/// Parameter sets per shape on the repeating workloads: 10 × 16 = 160 texts,
/// under the plan cache's 256 entries, so every lookup after the first hits.
const REPEAT_SETS: usize = 16;
/// Draws per shape on `covered_cold`: 10 × 1 200 = 12 000 texts, 47 times
/// the plan cache, so clear-on-full eviction fires every 256 misses.
const COLD_DRAWS: usize = 1_200;
/// Draws per shape on `covered_cold` whose answers the engine pre-computes.
const COLD_ORACLE_DRAWS: usize = 8;

/// The script of `workload` for `seed` at `scale`.
pub fn build_script(workload: &Workload, seed: u64, scale: u32) -> Vec<Entry> {
    let mut rng = Rng::new(seed);
    let domain = Domain::at_scale(scale);
    let covered: Vec<&Shape> = COVERED.iter().collect();
    let uncovered: Vec<&Shape> = UNCOVERED.iter().collect();
    let mut script = match workload.kind {
        Kind::CoveredRepeat => draw_sets(
            &covered,
            REPEAT_SETS,
            &mut rng,
            domain,
            Expect::Bounded,
            false,
        ),
        Kind::CoveredCold => {
            let mut script = draw_sets(
                &covered,
                COLD_DRAWS,
                &mut rng,
                domain,
                Expect::Bounded,
                false,
            );
            for (i, e) in script.iter_mut().enumerate() {
                e.oracle = i % COLD_DRAWS < COLD_ORACLE_DRAWS;
            }
            script
        }
        Kind::Uncovered => draw_sets(
            &uncovered,
            REPEAT_SETS,
            &mut rng,
            domain,
            Expect::Baseline,
            false,
        ),
        Kind::Mixed => {
            // 200 submissions: 60 % point lookups, 15 % fan-out shapes whose
            // bound exceeds the budget, 20 % small and 5 % large uncovered,
            // each share cycling through its own small pool of texts.
            let q = |id: &str| COVERED.iter().find(|s| s.id == id).expect("known shape");
            let mut script = Vec::new();
            for (shapes, sets, expect, count) in [
                (vec![q("Q2"), &PROFILE], REPEAT_SETS, Expect::Bounded, 120),
                (vec![q("Q3"), q("Q8"), q("Q9")], 8, Expect::Approximate, 30),
                (SMALL_UNCOVERED.iter().collect(), 8, Expect::Baseline, 40),
                (vec![&UNCOVERED[0], &UNCOVERED[3]], 4, Expect::Rejected, 10),
            ] {
                let texts = draw_sets(&shapes, sets, &mut rng, domain, expect, true);
                script.extend((0..count).map(|i| texts[i % texts.len()].clone()));
            }
            script
        }
    };
    rng.shuffle(&mut script);
    script
}

/// FNV-1a over every text and expected decision, in script order.
pub fn script_hash(script: &[Entry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in script {
        eat(e.sql.as_bytes());
        eat(&[0xff, e.expect as u8]);
    }
    h
}

/// Rows per maintenance batch.
pub const BATCH_ROWS: usize = 256;
/// `record_id`s of benchmark-inserted `call` rows start here, far above any
/// the generator assigns, so a batch can be deleted by id range.
const BATCH_ID_BASE: i64 = 1 << 40;

/// The `record_id` column of `call`.
pub const CALL_RECORD_ID: usize = 15;

/// Generates the writer's `call` batches.
pub struct BatchGen {
    rng: Rng,
    domain: Domain,
}

impl BatchGen {
    pub fn new(seed: u64, scale: u32) -> BatchGen {
        BatchGen {
            // A different stream from the script's, from the same seed.
            rng: Rng::new(seed ^ 0x5bd1_e995_0000_0001),
            domain: Domain::at_scale(scale),
        }
    }

    /// The `record_id` range of batch `n`.
    pub fn ids(n: u64) -> std::ops::Range<i64> {
        let start = BATCH_ID_BASE + n as i64 * BATCH_ROWS as i64;
        start..start + BATCH_ROWS as i64
    }

    /// The rows of batch `n`.  Callers and days are spread like the
    /// generator's, so every `(pnum, date)` and `(cell_id, date)` group stays
    /// far inside its bound (500 and 2 000) and D ⊨ A holds throughout.
    pub fn batch(&mut self, n: u64) -> Vec<Row> {
        let rng = &mut self.rng;
        BatchGen::ids(n)
            .map(|id| {
                let caller = rng.below(self.domain.customers);
                let duration = rng.between(5, 3_599);
                vec![
                    Value::str(pnum(caller)),
                    Value::str(pnum(rng.below(self.domain.customers))),
                    Value::str(date(rng.below(CALL_DAYS) as u8)),
                    Value::str(vocab::REGIONS[caller % vocab::REGIONS.len()]),
                    Value::Int(duration),
                    Value::Int(rng.between(0, 22)),
                    Value::Int(rng.between(0, 22)),
                    Value::str(rng.pick(&["local", "long_distance", "international"])),
                    Value::str(cell_id(rng.below(self.domain.towers))),
                    Value::Bool(false),
                    Value::Bool(false),
                    Value::Float(duration as f64 * 0.002),
                    Value::str(rng.pick(&["outgoing", "incoming"])),
                    Value::Int(rng.between(0, 4)),
                    Value::str(rng.pick(&["4g", "5g", "volte"])),
                    Value::Int(id),
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_script_different_seed_different_script() {
        for w in &WORKLOADS {
            let a = script_hash(&build_script(w, 7, 1));
            assert_eq!(a, script_hash(&build_script(w, 7, 1)), "{}", w.name);
            assert_ne!(a, script_hash(&build_script(w, 8, 1)), "{}", w.name);
        }
    }

    #[test]
    fn scripts_have_the_sizes_the_workloads_are_named_for() {
        let distinct = |w: &str, scale| {
            let script = build_script(&Workload::by_name(w).unwrap(), 3, scale);
            let texts: HashSet<&str> = script.iter().map(|e| e.sql.as_str()).collect();
            (script.len(), texts.len())
        };
        let (len, texts) = distinct("covered_hot", LARGE_SCALE);
        assert_eq!(len, 160);
        assert!(texts <= 160 && texts > 150, "{texts}");
        let (len, texts) = distinct("covered_cold", LARGE_SCALE);
        assert_eq!(len, 12_000);
        assert!(texts >= 10_000, "{texts}");
        assert_eq!(distinct("uncovered_scan", LARGE_SCALE).0, 112);
        let (len, texts) = distinct("mixed_rw", LARGE_SCALE);
        assert_eq!(len, 200);
        assert!(texts < 100, "{texts}");
    }

    #[test]
    fn mixed_script_has_the_scripted_decision_mix() {
        let script = build_script(&Workload::by_name("mixed_rw").unwrap(), 11, LARGE_SCALE);
        let count = |x| script.iter().filter(|e| e.expect == x).count();
        assert_eq!(count(Expect::Bounded), 120);
        assert_eq!(count(Expect::Approximate), 30);
        assert_eq!(count(Expect::Baseline), 40);
        assert_eq!(count(Expect::Rejected), 10);
        // Q2 reads the written table, the profile lookup does not.
        assert!(script.iter().any(|e| e.volatile && e.point));
        assert!(script.iter().any(|e| !e.volatile && e.point));
    }

    #[test]
    fn batches_are_deterministic_and_id_ranges_are_disjoint() {
        let a = BatchGen::new(5, 1).batch(0);
        let b = BatchGen::new(5, 1).batch(0);
        assert_eq!(a, b);
        assert_eq!(a.len(), BATCH_ROWS);
        assert_eq!(a[0].len(), 16);
        assert_eq!(BatchGen::ids(0).end, BatchGen::ids(1).start);
        assert_ne!(a, BatchGen::new(6, 1).batch(0));
    }

    #[test]
    fn rng_draws_stay_in_range() {
        let mut rng = Rng::new(1);
        for _ in 0..1_000 {
            assert!(rng.below(7) < 7);
            let v = rng.between(-3, 3);
            assert!((-3..=3).contains(&v));
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert_eq!(rng.below(0), 0);
    }
}
