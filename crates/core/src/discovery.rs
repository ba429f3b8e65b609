//! Access-schema discovery.
//!
//! The paper's Discovery module "automatically discovers an access schema
//! from real-life datasets", optimizing over (a) the performance of bounded
//! evaluation of the query load, (b) a storage limit for indices, (c)
//! historical query patterns and (d) statistics of the datasets.  The precise
//! algorithm is deferred to a later publication, so this implementation is a
//! faithful instantiation of that multi-criteria description:
//!
//! 1. **Candidate generation** from the query workload, read through the
//!    binder and the [`QueryGraph`] the BE Checker decides coverage on: for
//!    every atom, attributes bound to constants (or joined to another atom)
//!    form candidate key sets `X`, and the attributes of that atom the query
//!    needs, minus `X`, form the fetch set `Y`.
//! 2. **Profiling** against the data: each candidate's index is built once,
//!    and it gives both the observed maximum bucket — the tightest `N` —
//!    and the storage cost.
//! 3. **Greedy selection** under the storage budget, ranking candidates by
//!    (queries helped) / (index bytes).

use crate::graph::{Atom, QueryGraph, Term};
use beas_access::{AccessConstraint, AccessSchema};
use beas_common::{BeasError, Result};
use beas_sql::{parse_select, Binder, SelectStatement};
use beas_storage::{ConstraintIndex, Database};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of the discovery run.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Maximum total index storage in bytes (`None` = unlimited).
    pub storage_budget_bytes: Option<usize>,
    /// Candidates whose observed cardinality exceeds this bound are discarded
    /// (an access constraint with a huge `N` gives no useful bound).
    pub max_bound: u64,
    /// Multiplicative headroom applied to the observed cardinality when
    /// setting `N` (the paper's bounds are "aggregated from historical
    /// datasets", i.e. not exact maxima of the current instance).
    pub headroom: f64,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            storage_budget_bytes: None,
            max_bound: 100_000,
            headroom: 1.25,
        }
    }
}

/// One profiled candidate constraint.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The candidate constraint (with its profiled bound).
    pub constraint: AccessConstraint,
    /// Observed maximum cardinality on the data.
    pub observed_max: usize,
    /// Estimated index size in bytes.
    pub index_bytes: usize,
    /// Number of workload queries that generated this candidate.
    pub queries_helped: usize,
}

/// The outcome of a discovery run.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryReport {
    /// All candidates considered, in scoring order.
    pub candidates: Vec<Candidate>,
    /// Ids of the selected candidates.
    pub selected: Vec<String>,
    /// Total estimated index bytes of the selection.
    pub total_bytes: usize,
}

/// Discover an access schema from a dataset and a SQL workload.
pub fn discover(
    db: &Database,
    workload: &[String],
    config: &DiscoveryConfig,
) -> Result<(AccessSchema, DiscoveryReport)> {
    let statements: Vec<SelectStatement> = workload
        .iter()
        .map(|sql| parse_select(sql))
        .collect::<Result<_>>()?;
    discover_from_statements(db, &statements, config)
}

/// Discover an access schema from already-parsed query patterns.
pub fn discover_from_statements(
    db: &Database,
    workload: &[SelectStatement],
    config: &DiscoveryConfig,
) -> Result<(AccessSchema, DiscoveryReport)> {
    if config.headroom < 1.0 {
        return Err(BeasError::invalid_argument(
            "discovery headroom must be >= 1.0",
        ));
    }
    // candidate key -> (constraint shape, #queries)
    let mut raw: BTreeMap<String, (String, Vec<String>, Vec<String>, usize)> = BTreeMap::new();
    for stmt in workload {
        for (table, x, y) in candidates_for_statement(db, stmt) {
            let c = AccessConstraint::new(&table, &x, &y, 1)?;
            let entry = raw
                .entry(c.id())
                .or_insert_with(|| (table.clone(), x.clone(), y.clone(), 0));
            entry.3 += 1;
        }
    }

    // Profile candidates against the data.
    let mut candidates = Vec::new();
    for (_, (table, x, y, helped)) in raw {
        let Ok(tbl) = db.table(&table) else { continue };
        let index = ConstraintIndex::build(tbl, &x, &y)?;
        let observed = index.observed_max_cardinality();
        if observed == 0 {
            continue; // empty table: nothing to learn
        }
        if observed as u64 > config.max_bound {
            continue; // not a useful cardinality constraint
        }
        let n = ((observed as f64 * config.headroom).ceil() as u64).max(observed as u64);
        candidates.push(Candidate {
            constraint: AccessConstraint::new(&table, &x, &y, n)?,
            observed_max: observed,
            index_bytes: index.estimated_bytes(),
            queries_helped: helped,
        });
    }

    // Rank by benefit per byte (queries helped per KiB, ties by smaller size).
    candidates.sort_by(|a, b| {
        let score = |c: &Candidate| c.queries_helped as f64 / (c.index_bytes.max(1) as f64);
        score(b)
            .partial_cmp(&score(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index_bytes.cmp(&b.index_bytes))
    });

    // Greedy selection under the storage budget.
    let mut schema = AccessSchema::new();
    let mut report = DiscoveryReport {
        candidates: candidates.clone(),
        ..Default::default()
    };
    for cand in &candidates {
        if let Some(budget) = config.storage_budget_bytes {
            if report.total_bytes + cand.index_bytes > budget {
                continue;
            }
        }
        schema.add(cand.constraint.clone());
        report.selected.push(cand.constraint.id());
        report.total_bytes += cand.index_bytes;
    }
    Ok((schema, report))
}

/// Generate candidate `(table, X, Y)` triples from one query pattern.  A
/// statement the binder or the graph rejects (an unknown table or column,
/// say) contributes none.
fn candidates_for_statement(
    db: &Database,
    stmt: &SelectStatement,
) -> Vec<(String, Vec<String>, Vec<String>)> {
    let Ok(query) = Binder::new(db).bind(stmt) else {
        return Vec::new();
    };
    let Ok(graph) = QueryGraph::build(&query) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for atom in graph.atoms.iter() {
        let bound = columns_of(atom, graph.constants.keys().chain(graph.in_lists.keys()));
        let joined = columns_of(atom, graph.equalities.iter().flat_map(|(l, r)| [l, r]));

        // X = constant-bound columns.
        push_candidate(atom, bound.clone(), &mut out);
        // X = constant-bound columns + each join column (the "fetch by key
        // propagated through a join" pattern of Example 2).
        for jc in &joined {
            let mut x = bound.clone();
            x.insert(jc.clone());
            push_candidate(atom, x, &mut out);
        }
        // X = each join column alone.
        for jc in &joined {
            push_candidate(atom, BTreeSet::from([jc.clone()]), &mut out);
        }
    }
    out
}

/// The columns of `atom` among `terms`.
fn columns_of<'a>(atom: &Atom, terms: impl Iterator<Item = &'a Term>) -> BTreeSet<String> {
    terms
        .filter(|(a, _)| *a == atom.idx)
        .map(|(_, col)| col.clone())
        .collect()
}

/// Record the candidate `atom(X -> needed \ X)` unless `X` or `Y` is empty.
fn push_candidate(
    atom: &Atom,
    x: BTreeSet<String>,
    out: &mut Vec<(String, Vec<String>, Vec<String>)>,
) {
    let y: Vec<String> = atom.needed.difference(&x).cloned().collect();
    if !x.is_empty() && !y.is_empty() {
        out.push((atom.table.clone(), x.into_iter().collect(), y));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_access::AsCatalog;
    use beas_common::{ColumnDef, DataType, TableSchema, Value};
    use beas_sql::SchemaProvider;
    use beas_storage::TableStatistics;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
                    ColumnDef::new("region", DataType::Str),
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
        for i in 0..60 {
            db.insert(
                "call",
                vec![
                    Value::str(format!("p{}", i % 6)),
                    Value::str(format!("r{}", i % 20)),
                    Value::str(format!("2016-07-{:02}", (i % 5) + 1)),
                    Value::str(if i % 2 == 0 { "east" } else { "west" }),
                ],
            )
            .unwrap();
        }
        for i in 0..12 {
            db.insert(
                "business",
                vec![
                    Value::str(format!("p{}", i % 6)),
                    Value::str(if i % 3 == 0 { "bank" } else { "hospital" }),
                    Value::str(if i % 2 == 0 { "east" } else { "west" }),
                ],
            )
            .unwrap();
        }
        db
    }

    fn workload() -> Vec<String> {
        vec![
            "SELECT call.region FROM call, business \
             WHERE business.type = 'bank' AND business.region = 'east' \
             AND business.pnum = call.pnum AND call.date = '2016-07-01'"
                .to_string(),
            "SELECT recnum FROM call WHERE pnum = 'p1' AND date = '2016-07-02'".to_string(),
        ]
    }

    #[test]
    fn discovers_useful_constraints() {
        let db = db();
        let (schema, report) = discover(&db, &workload(), &DiscoveryConfig::default()).unwrap();
        assert!(!schema.is_empty());
        assert!(!report.candidates.is_empty());
        assert_eq!(report.selected.len(), schema.len());
        // it should find something keyed on business(type, region) and on call(date, pnum)
        assert!(schema
            .constraints()
            .iter()
            .any(|c| c.table == "business" && c.x.contains(&"type".to_string())));
        assert!(schema
            .constraints()
            .iter()
            .any(|c| c.table == "call" && c.x.contains(&"pnum".to_string())));
        // discovered bounds must hold on the data (headroom >= observed)
        for cand in &report.candidates {
            assert!(cand.constraint.n >= cand.observed_max as u64);
        }
    }

    #[test]
    fn storage_budget_limits_selection() {
        let db = db();
        let unlimited = discover(&db, &workload(), &DiscoveryConfig::default()).unwrap();
        let tight = discover(
            &db,
            &workload(),
            &DiscoveryConfig {
                storage_budget_bytes: Some(unlimited.1.total_bytes / 2),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(tight.1.total_bytes <= unlimited.1.total_bytes / 2);
        assert!(tight.0.len() <= unlimited.0.len());
    }

    #[test]
    fn max_bound_filters_useless_candidates() {
        let db = db();
        let cfg = DiscoveryConfig {
            max_bound: 1, // nothing with more than one associated value allowed
            ..Default::default()
        };
        let (schema, _) = discover(&db, &workload(), &cfg).unwrap();
        for c in schema.constraints() {
            let t = db.table(&c.table).unwrap();
            let obs = TableStatistics::max_group_cardinality(t, &c.x, &c.y).unwrap();
            assert!(obs <= 1);
        }
    }

    #[test]
    fn rejects_bad_config_and_bad_sql() {
        let db = db();
        let bad = DiscoveryConfig {
            headroom: 0.5,
            ..Default::default()
        };
        assert!(discover(&db, &workload(), &bad).is_err());
        assert!(discover(&db, &["not sql".to_string()], &DiscoveryConfig::default()).is_err());
    }

    #[test]
    fn workload_over_unknown_tables_yields_empty_schema() {
        let db = db();
        let (schema, report) = discover(
            &db,
            &["SELECT x FROM unknown_table WHERE x = 1".to_string()],
            &DiscoveryConfig::default(),
        )
        .unwrap();
        assert!(schema.is_empty());
        assert!(report.selected.is_empty());
    }

    #[test]
    fn discovered_schema_round_trips_through_text() {
        let db = db();
        let (schema, _) = discover(&db, &workload(), &DiscoveryConfig::default()).unwrap();
        let text = schema.to_text();
        let parsed = AccessSchema::from_text(&text).unwrap();
        assert_eq!(parsed.len(), schema.len());
    }

    #[test]
    fn schema_provider_visibility() {
        // make sure the discovery helper sees the same schemas the binder does
        let db = db();
        assert!(db.table_schema("call").is_some());
    }

    #[test]
    fn discovered_schema_registers_with_the_catalog() {
        let db = db();
        let workload =
            vec!["SELECT pnum FROM business WHERE type = 'bank' AND region = 'east'".to_string()];
        let (schema, report) = discover(&db, &workload, &DiscoveryConfig::default()).unwrap();
        assert!(!report.selected.is_empty());
        let mut catalog = AsCatalog::new();
        let entry = catalog.register("tlc", &db, schema).unwrap();
        assert_eq!(entry.metadata.constraint_count, report.selected.len());
    }
}
