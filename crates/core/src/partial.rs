//! Partially bounded evaluation (the BE Plan Optimizer).
//!
//! When a query is not covered by the access schema, BEAS does not give up:
//! it identifies the sub-queries (atoms) that *are* covered, evaluates them
//! boundedly through the constraint indices, and hands the conventional DBMS
//! a reduced problem in which each covered relation has been replaced by its
//! bounded, already-filtered subset.  The residue still scans the uncovered
//! relations, but the covered ones no longer contribute `|D|`-sized scans or
//! join inputs — "speeding up the evaluation of Q by capitalizing on the
//! indices of A" (§3).

use crate::checker::CoverageResult;
use crate::executor::fetch_context;
use crate::graph::QueryGraph;
use crate::plan::{KeySource, PlannedFetch};
use crate::planner::generate_plan_for_steps;
use beas_common::{BeasError, ColumnDef, QuotaTracker, Result, Row, TableSchema, Value};
use beas_engine::{Engine, ExecutionMetrics};
use beas_sql::{AggregateFunction, BoundQuery};
use beas_storage::Database;
use std::collections::{BTreeSet, HashSet};

/// Default minimum *predicted* savings fraction before a partially bounded
/// plan is worth its overhead (see [`PartialOptions::reduction_min_savings`]).
///
/// The Q11 lesson behind the number: swapping a covered relation for its
/// bounded subset costs a context fetch, a materialization, and a full copy
/// of every *other* relation into the reduced database.  When the predicted
/// rows eliminated are less than ~10% of the data the residual stage
/// touches anyway, that overhead reliably exceeds the saving and the
/// conventional plan wins.
pub const DEFAULT_REDUCTION_MIN_SAVINGS: f64 = 0.1;

/// Tuning of a partially bounded execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialOptions {
    /// Cost gate on the *predicted* savings ratio: a covered relation is
    /// only reduced when the fraction of base rows the reduction is
    /// predicted to eliminate (from memoized table statistics, before any
    /// fetch runs) is at least this threshold — and the whole bounded stage
    /// is skipped (pure conventional fallback) when the predicted rows
    /// saved across all reductions are below this fraction of the total
    /// base rows the residual must process.  `0.0` disables the gate
    /// (every legal reduction is applied), which is also the
    /// `PartialOptions::default()`; [`crate::BeasSystem`] always runs it at
    /// [`DEFAULT_REDUCTION_MIN_SAVINGS`].
    pub reduction_min_savings: f64,
}

impl Default for PartialOptions {
    fn default() -> Self {
        PartialOptions {
            reduction_min_savings: 0.0,
        }
    }
}

/// How much one covered relation shrank when the bounded stage replaced it
/// by its fetched subset — the telemetry behind the ROADMAP's Q11
/// observation that a reduction which barely shrinks a relation costs more
/// (materialization + re-scan) than it saves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionSaving {
    /// Alias of the reduced relation in the query.
    pub alias: String,
    /// Rows of the base relation (what the residual plan would have
    /// scanned without the reduction).
    pub rows_before: u64,
    /// Rows of the bounded replacement actually handed to the residue.
    pub rows_after: u64,
}

impl ReductionSaving {
    /// Fraction of the base relation the reduction eliminated, in `[0, 1]`
    /// (0.0 when the relation was empty or nothing was saved).
    pub fn savings_ratio(&self) -> f64 {
        if self.rows_before == 0 {
            0.0
        } else {
            1.0 - (self.rows_after as f64 / self.rows_before as f64)
        }
    }
}

/// The result of a partially bounded execution.
#[derive(Debug, Clone)]
pub struct PartialExecution {
    /// Output rows.
    pub rows: Vec<Row>,
    /// Metrics of the bounded (fetch) stage.
    pub bounded_metrics: ExecutionMetrics,
    /// Metrics of the residual run on the conventional engine.
    pub residual_metrics: ExecutionMetrics,
    /// Tuples fetched through constraint indices.
    pub tuples_fetched: u64,
    /// Tuples scanned by the residual conventional plan.
    pub tuples_scanned: u64,
    /// Aliases of the relations that were replaced by bounded subsets.
    pub reduced_relations: Vec<String>,
    /// Per-relation rows-before/after of each applied reduction (also
    /// surfaced as `PartialReduce(alias: before→after)` lines in the
    /// bounded-stage metrics report).
    pub reduction_savings: Vec<ReductionSaving>,
}

impl PartialExecution {
    /// Total tuples accessed across both stages.
    pub fn total_tuples_accessed(&self) -> u64 {
        self.tuples_fetched + self.tuples_scanned
    }
}

/// Execute a non-covered query as a partially bounded plan.
///
/// `coverage` must come from the checker for the same query.  Atoms in
/// `coverage.covered_atoms` are materialized from the bounded context; the
/// rest of the query runs on `engine` against a database in which those
/// relations have been swapped for their bounded subsets.
pub fn execute_partially_bounded(
    db: &Database,
    engine: &Engine,
    query: &BoundQuery,
    graph: &QueryGraph,
    coverage: &CoverageResult,
    indexes: &beas_access::AccessIndexes,
) -> Result<PartialExecution> {
    execute_partially_bounded_with(
        db,
        engine,
        query,
        graph,
        coverage,
        indexes,
        PartialOptions::default(),
        None,
    )
}

/// Pure conventional fallback: the whole query runs on `engine`, nothing is
/// reduced.  Shared by the nothing-coverable path and the cost gate.
fn run_fallback(
    db: &Database,
    engine: &Engine,
    query: &BoundQuery,
    quota: Option<&QuotaTracker>,
    bounded_metrics: ExecutionMetrics,
) -> Result<PartialExecution> {
    let result = engine.run_bound_with_quota(db, query, quota)?;
    Ok(PartialExecution {
        rows: result.rows,
        bounded_metrics,
        tuples_scanned: result.metrics.total_tuples_accessed(),
        residual_metrics: result.metrics,
        tuples_fetched: 0,
        reduced_relations: Vec::new(),
        reduction_savings: Vec::new(),
    })
}

/// Predicted rows a fetch step will retrieve for its atom, from the table's
/// memoized statistics — *before* anything executes.  Keys known at plan
/// time (constants and IN-lists) use a uniformity estimate — table rows
/// divided by the distinct combinations of the constraint's key attributes,
/// times the number of keys; context-sourced keys depend on earlier fetches,
/// so the deduced bound stands in (pessimistic, which only makes the gate
/// more willing to skip).
fn predicted_fetch_rows(db: &Database, query: &BoundQuery, fetch: &PlannedFetch) -> Result<u64> {
    let table = &query.tables[fetch.atom].table;
    let stats = db.statistics(table)?;
    let rows = stats.row_count as u64;
    let mut key_combos: u64 = 1;
    for k in &fetch.keys {
        match k {
            KeySource::Constant(_) => {}
            KeySource::Constants(vs) => {
                key_combos = key_combos.saturating_mul(vs.len().max(1) as u64)
            }
            KeySource::Ctx(_, _) => return Ok(fetch.bound.min(rows)),
        }
    }
    let mut distinct: u64 = 1;
    for col in &fetch.constraint.x {
        let d = stats
            .columns
            .iter()
            .find(|c| c.name == *col)
            .map(|c| c.distinct_count.max(1) as u64)
            .unwrap_or(1);
        distinct = distinct.saturating_mul(d);
    }
    let per_key = (rows / distinct.max(1)).max(1);
    Ok(per_key.saturating_mul(key_combos).min(rows))
}

/// [`execute_partially_bounded`] with explicit tuning and an optional
/// session quota (charged by the bounded fetches and by the residual
/// engine's scans alike).
#[allow(clippy::too_many_arguments)]
pub fn execute_partially_bounded_with(
    db: &Database,
    engine: &Engine,
    query: &BoundQuery,
    graph: &QueryGraph,
    coverage: &CoverageResult,
    indexes: &beas_access::AccessIndexes,
    options: PartialOptions,
    quota: Option<&QuotaTracker>,
) -> Result<PartialExecution> {
    if coverage.covered_atoms.is_empty() || coverage.fetch_sequence.is_empty() {
        // Nothing is coverable: pure fallback to the conventional engine.
        return run_fallback(db, engine, query, quota, ExecutionMetrics::new());
    }

    let plan = generate_plan_for_steps(query, graph, coverage, None)?;
    let covered: BTreeSet<usize> = coverage.covered_atoms.clone();

    // Cost gate (the ROADMAP's Q11 follow-up): predict each candidate
    // reduction's savings from plan-time statistics and refuse reductions —
    // or the whole bounded stage — whose predicted benefit is below the
    // threshold.  Keeping a relation un-reduced is always sound, so the
    // gate can only trade speed, never answers.
    let threshold = options.reduction_min_savings;
    let mut gate_passed: BTreeSet<usize> = BTreeSet::new();
    let mut predicted_saved_total: u64 = 0;
    // Only the first occurrence of a table contributes to the saved total:
    // the reduced database holds one (reduced) copy per table name, so a
    // self-join's occurrences share one saving, not one each.
    let mut saved_tables: BTreeSet<&str> = BTreeSet::new();
    for (idx, table) in query.tables.iter().enumerate() {
        let all_occurrences_covered = query
            .tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.table == table.table)
            .all(|(i, _)| covered.contains(&i));
        if !covered.contains(&idx) || !all_occurrences_covered {
            continue;
        }
        if threshold <= 0.0 {
            // gate disabled: every legal reduction applies, and the
            // statistics-based prediction (a per-atom stats lookup) is
            // skipped entirely — the pre-gate fast path
            gate_passed.insert(idx);
            continue;
        }
        let rows_before = db.table(&table.table)?.row_count() as u64;
        let predicted_after = plan
            .fetches
            .iter()
            .filter(|f| f.atom == idx)
            .map(|f| predicted_fetch_rows(db, query, f))
            .collect::<Result<Vec<u64>>>()?
            .into_iter()
            .min()
            .unwrap_or(rows_before)
            .min(rows_before);
        let predicted_saved = rows_before - predicted_after;
        let predicted_ratio = if rows_before == 0 {
            0.0
        } else {
            predicted_saved as f64 / rows_before as f64
        };
        if predicted_ratio >= threshold {
            gate_passed.insert(idx);
            if saved_tables.insert(table.table.as_str()) {
                predicted_saved_total += predicted_saved;
            }
        }
    }
    if threshold > 0.0 {
        // Whole-stage gate: the residual stage copies and re-scans every
        // relation of the query, so savings predicted against a small
        // covered relation cannot pay for processing the big uncovered
        // ones (Q11's shape: the reduced `business` is dwarfed by the full
        // `call` copy).
        let mut seen_tables: BTreeSet<&str> = BTreeSet::new();
        let mut total_base_rows: u64 = 0;
        for t in query.tables.iter() {
            if seen_tables.insert(t.table.as_str()) {
                total_base_rows += db.table(&t.table)?.row_count() as u64;
            }
        }
        let beneficial = !gate_passed.is_empty()
            && (predicted_saved_total as f64) >= threshold * total_base_rows as f64;
        if !beneficial {
            let mut bounded_metrics = ExecutionMetrics::new();
            bounded_metrics.record(
                format!(
                    "PartialGate(skip: predicted {predicted_saved_total} of \
                     {total_base_rows} rows saved, below {:.0}%)",
                    threshold * 100.0
                ),
                0,
                0,
                std::time::Duration::ZERO,
            );
            return run_fallback(db, engine, query, quota, bounded_metrics);
        }
    }

    // 1. Bounded stage: fetch everything the access schema reaches.
    let ctx = fetch_context(&plan, indexes, quota, beas_obs::trace_level().timing())?;

    // 2. Build the reduced database: covered relations are replaced by the
    //    distinct partial tuples the bounded stage produced (columns the
    //    query does not need are NULL — by definition of coverage the
    //    residual query never reads them).
    //
    //    The bounded stage only knows *distinct* tuples, so for queries
    //    whose answer depends on input multiplicities (bag-sensitive
    //    aggregates like COUNT(*)/SUM, or non-DISTINCT projections) a
    //    relation may only be swapped for its distinct subset when that
    //    provably loses nothing — i.e. when the needed-column projection of
    //    the base table is duplicate-free.  Otherwise the reduction would
    //    silently change answer values (e.g. COUNT(*) = 1 instead of 2 when
    //    two base rows share one partial tuple).
    let bag_sensitive = multiplicity_matters(query);
    let mut reduced = Database::new();
    let mut reduced_relations = Vec::new();
    let mut reduction_savings: Vec<ReductionSaving> = Vec::new();
    for (idx, table) in query.tables.iter().enumerate() {
        // A relation may appear several times under different aliases; the
        // reduced database keys tables by *alias* so each occurrence gets its
        // own (possibly reduced) contents, and the residual SQL is rewritten
        // against the aliases.  To keep this simple we only reduce when every
        // occurrence of the table is covered; otherwise the original table is
        // kept in full.  `gate_passed` additionally requires the predicted
        // savings to clear the cost gate.
        if reduced.has_table(&table.table) {
            continue;
        }
        // short-circuit: the duplicate-freeness scan only runs for atoms
        // that are actually candidates for reduction
        if gate_passed.contains(&idx)
            && (!bag_sensitive
                || projection_is_duplicate_free(db, &table.table, &graph.atoms[idx].needed)?)
        {
            let schema = nullable_copy(&table.schema);
            // beas-lint: allow(L004) -- `reduced` is a private scratch
            // database being constructed here, not the live system state
            reduced.create_table(schema)?;
            let rows = materialize_atom(&ctx, query, graph, idx)?;
            reduction_savings.push(ReductionSaving {
                alias: table.alias.clone(),
                rows_before: db.table(&table.table)?.row_count() as u64,
                rows_after: rows.len() as u64,
            });
            reduced.insert_many(&table.table, rows)?;
            reduced_relations.push(table.alias.clone());
        } else {
            // keep the original relation in full
            // beas-lint: allow(L004) -- same scratch database as above
            reduced.create_table(nullable_copy(&table.schema))?;
            let rows: Vec<Row> = db.table(&table.table)?.rows_iter().cloned().collect();
            reduced.insert_many(&table.table, rows)?;
        }
    }

    // 3. Residual stage: run the query on the reduced database, which has
    //    the tables the query was bound against, column for column (the
    //    copies differ in nullability, which no plan reads).
    let result = engine.run_bound_with_quota(&reduced, query, quota)?;

    // Surface the per-relation reduction savings in the bounded-stage
    // metrics report: this is the Q11 telemetry — a reduction with a tiny
    // savings ratio signals that the bounded stage materialized a relation
    // it barely shrank (the cost-gating follow-up in the ROADMAP).
    let mut bounded_metrics = ctx.metrics;
    for s in &reduction_savings {
        bounded_metrics.record(
            format!(
                "PartialReduce({}: {}\u{2192}{}, saved {:.0}%)",
                s.alias,
                s.rows_before,
                s.rows_after,
                s.savings_ratio() * 100.0
            ),
            s.rows_after,
            0,
            std::time::Duration::ZERO,
        );
    }

    Ok(PartialExecution {
        rows: result.rows,
        bounded_metrics,
        tuples_scanned: result.metrics.total_tuples_accessed(),
        residual_metrics: result.metrics,
        tuples_fetched: ctx.tuples_accessed,
        reduced_relations,
        reduction_savings,
    })
}

/// Whether the query's answer depends on input multiplicities.  Distinct
/// projections and distinct-safe aggregates (MIN / MAX / COUNT DISTINCT —
/// the same set the checker admits for fully bounded plans) are insensitive
/// to duplicate rows; everything else is bag-sensitive.
fn multiplicity_matters(query: &BoundQuery) -> bool {
    if query.is_aggregate {
        query.aggregates.iter().any(|a| {
            !(matches!(a.func, AggregateFunction::Min | AggregateFunction::Max)
                || (a.func == AggregateFunction::Count && a.distinct))
        })
    } else {
        !query.distinct
    }
}

/// Whether projecting `table` onto its `needed` columns is duplicate-free,
/// i.e. replacing the relation by its distinct needed-tuples provably
/// preserves join and aggregate multiplicities.  One pass, no row copies.
fn projection_is_duplicate_free(
    db: &Database,
    table: &str,
    needed: &BTreeSet<String>,
) -> Result<bool> {
    let t = db.table(table)?;
    let idx: Vec<usize> = needed
        .iter()
        .map(|c| {
            t.schema()
                .column_index(c)
                .ok_or_else(|| BeasError::plan(format!("unknown needed column {c:?}")))
        })
        .collect::<Result<_>>()?;
    let mut seen: HashSet<Vec<&Value>> = HashSet::with_capacity(t.row_count());
    for (_, row) in t.iter() {
        let proj: Vec<&Value> = idx.iter().map(|&i| &row[i]).collect();
        if !seen.insert(proj) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The distinct rows of one covered atom, reconstructed from the context
/// relation at full table arity (unneeded columns NULL).
fn materialize_atom(
    ctx: &crate::executor::CtxResult<'_>,
    query: &BoundQuery,
    graph: &QueryGraph,
    atom: usize,
) -> Result<Vec<Row>> {
    let table = &query.tables[atom];
    let alias = &table.alias;
    // For each base-table column, find its position in the context (if the
    // bounded stage fetched it).
    let positions: Vec<Option<usize>> = table
        .schema
        .columns
        .iter()
        .map(|c| ctx.schema.index_of_origin(alias, &c.name))
        .collect();
    // Sanity: every *needed* column must be present.
    for needed in &graph.atoms[atom].needed {
        let i = table
            .schema
            .column_index(needed)
            .ok_or_else(|| BeasError::plan(format!("unknown needed column {needed:?}")))?;
        if positions[i].is_none() {
            return Err(BeasError::plan(format!(
                "covered atom {alias} is missing needed column {needed:?} in the bounded context"
            )));
        }
    }
    let projected = ctx.rows.iter().map(|row| {
        positions
            .iter()
            .map(|p| match p {
                Some(i) => row.get(*i).cloned().unwrap_or(Value::Null),
                None => Value::Null,
            })
            .collect::<Row>()
    });
    Ok(beas_common::dedupe(projected))
}

/// Copy of a table schema with every column nullable (reduced relations carry
/// NULLs in the columns the query never touches).
fn nullable_copy(schema: &TableSchema) -> TableSchema {
    TableSchema::new(
        schema.name.clone(),
        schema
            .columns
            .iter()
            .map(|c| ColumnDef::nullable(c.name.clone(), c.data_type))
            .collect(),
    )
    .expect("copy of a valid schema is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use beas_access::{build_indexes, AccessConstraint, AccessSchema};
    use beas_common::DataType;
    use beas_sql::{parse_select, Binder};

    /// call has a `duration` column not covered by any constraint, so queries
    /// touching it are only partially bounded.
    fn setup() -> (Database, AccessSchema, beas_access::AccessIndexes) {
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
        for i in 0..40 {
            db.insert(
                "call",
                vec![
                    Value::str(format!("p{}", i % 8)),
                    Value::str(format!("r{i}")),
                    Value::str("2016-07-04"),
                    Value::str(if i % 2 == 0 { "east" } else { "west" }),
                    Value::Int((i * 7) % 100),
                ],
            )
            .unwrap();
        }
        for i in 0..8 {
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
        let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
            "business",
            &["type", "region"],
            &["pnum"],
            2000,
        )
        .unwrap()]);
        let indexes = build_indexes(&db, &schema).unwrap();
        (db, schema, indexes)
    }

    fn run_partial(sql: &str) -> (PartialExecution, Vec<Row>) {
        let (db, schema, indexes) = setup();
        let engine = Engine::default();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(!coverage.covered);
        let partial =
            execute_partially_bounded(&db, &engine, &bound, &graph, &coverage, &indexes).unwrap();
        let baseline = engine.run(&db, sql).unwrap();
        (partial, baseline.rows)
    }

    #[test]
    fn partially_bounded_answers_match_the_baseline() {
        // SUM(duration) is bag-sensitive and duration is not in any
        // constraint, so this query is not covered — but `business` is.
        let sql = "select c.region, sum(c.duration) as total from call c, business b \
                   where b.type = 'bank' and b.region = 'r0' and b.pnum = c.pnum \
                   and c.date = '2016-07-04' group by c.region order by c.region";
        let (partial, baseline) = run_partial(sql);
        assert_eq!(partial.rows, baseline);
        assert_eq!(partial.reduced_relations, vec!["b".to_string()]);
        assert!(partial.tuples_fetched > 0);
        // the residual run scans the reduced business relation: 4 banks
        // instead of 8 businesses, plus the full call table
        assert!(partial.tuples_scanned < 48);
        assert!(partial.total_tuples_accessed() > 0);
    }

    #[test]
    fn reduction_savings_report_rows_before_and_after() {
        // The Q11 telemetry: every applied reduction reports how much it
        // shrank the relation, both programmatically and as a metrics line.
        let sql = "select c.region, sum(c.duration) as total from call c, business b \
                   where b.type = 'bank' and b.region = 'r0' and b.pnum = c.pnum \
                   and c.date = '2016-07-04' group by c.region order by c.region";
        let (partial, _) = run_partial(sql);
        assert_eq!(partial.reduction_savings.len(), 1);
        let s = &partial.reduction_savings[0];
        assert_eq!(s.alias, "b");
        assert_eq!(s.rows_before, 8); // 8 businesses in the base relation
        assert_eq!(s.rows_after, 4); // 4 banks survive the bounded stage
        assert!((s.savings_ratio() - 0.5).abs() < 1e-9);
        let report = partial.bounded_metrics.render();
        assert!(
            report.contains("PartialReduce(b: 8\u{2192}4, saved 50%)"),
            "missing savings line in:\n{report}"
        );
        // degenerate ratios stay in range
        let empty = ReductionSaving {
            alias: "x".into(),
            rows_before: 0,
            rows_after: 0,
        };
        assert_eq!(empty.savings_ratio(), 0.0);
    }

    #[test]
    fn fallback_when_nothing_is_covered() {
        let (db, _, indexes) = setup();
        // no constant bindings on business -> psi3 cannot fire
        let sql = "select c.region from call c, business b where b.pnum = c.pnum";
        let engine = Engine::default();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
            "business",
            &["type", "region"],
            &["pnum"],
            2000,
        )
        .unwrap()]);
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let partial =
            execute_partially_bounded(&db, &engine, &bound, &graph, &coverage, &indexes).unwrap();
        assert!(partial.reduced_relations.is_empty());
        assert_eq!(partial.tuples_fetched, 0);
        let baseline = engine.run(&db, sql).unwrap();
        assert_eq!(partial.rows.len(), baseline.rows.len());
    }

    #[test]
    fn bag_sensitive_reduction_is_skipped_when_duplicates_exist() {
        // Duplicate one business row: its needed-column projection is no
        // longer duplicate-free, so swapping `business` for its distinct
        // partial tuples would halve p0's contribution to SUM().  The
        // partial evaluator must detect this and keep the full relation.
        let (mut db, schema, _) = setup();
        db.insert(
            "business",
            vec![Value::str("p0"), Value::str("bank"), Value::str("r0")],
        )
        .unwrap();
        let indexes = build_indexes(&db, &schema).unwrap();
        let engine = Engine::default();
        let sql = "select c.region, sum(c.duration) as total from call c, business b \
                   where b.type = 'bank' and b.region = 'r0' and b.pnum = c.pnum \
                   and c.date = '2016-07-04' group by c.region order by c.region";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(!coverage.covered);
        let partial =
            execute_partially_bounded(&db, &engine, &bound, &graph, &coverage, &indexes).unwrap();
        let baseline = engine.run(&db, sql).unwrap();
        // answers agree — the duplicated bank double-counts on both paths
        assert_eq!(partial.rows, baseline.rows);
        // and the unsound reduction was skipped
        assert!(partial.reduced_relations.is_empty());
    }

    /// Run with an explicit gate threshold (and otherwise-default options).
    fn run_partial_gated(sql: &str, threshold: f64) -> (PartialExecution, Vec<Row>) {
        let (db, schema, indexes) = setup();
        let engine = Engine::default();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(!coverage.covered);
        let options = PartialOptions {
            reduction_min_savings: threshold,
        };
        let partial = execute_partially_bounded_with(
            &db, &engine, &bound, &graph, &coverage, &indexes, options, None,
        )
        .unwrap();
        let baseline = engine.run(&db, sql).unwrap();
        (partial, baseline.rows)
    }

    #[test]
    fn q11_shaped_low_savings_reduction_is_cost_gated_to_pure_fallback() {
        // The Q11 regression shape: the covered relation (`business`, 8
        // rows) is dwarfed by the uncovered one (`call`, 40 rows), so even
        // a 50% predicted shrink of `business` saves only 4 of the 48 rows
        // the residual stage must copy and re-scan.  Under the default
        // threshold the gate must skip the whole bounded stage — no
        // fetches, no reduced database — and fall back to the conventional
        // plan, with identical answers.
        let sql = "select c.region, sum(c.duration) as total from call c, business b \
                   where b.type = 'bank' and b.region = 'r0' and b.pnum = c.pnum \
                   and c.date = '2016-07-04' group by c.region order by c.region";
        let (gated, baseline) = run_partial_gated(sql, DEFAULT_REDUCTION_MIN_SAVINGS);
        assert_eq!(gated.rows, baseline, "gate must not change answers");
        assert!(
            gated.reduced_relations.is_empty(),
            "reduction must be skipped"
        );
        assert!(gated.reduction_savings.is_empty());
        assert_eq!(gated.tuples_fetched, 0, "no bounded fetch may run");
        let report = gated.bounded_metrics.render();
        assert!(
            report.contains("PartialGate(skip"),
            "gate decision must be visible in the metrics:\n{report}"
        );
        // threshold 0 disables the gate: same query, reduction applied
        let (ungated, baseline) = run_partial_gated(sql, 0.0);
        assert_eq!(ungated.rows, baseline);
        assert_eq!(ungated.reduced_relations, vec!["b".to_string()]);
        assert!(ungated.tuples_fetched > 0);
    }

    #[test]
    fn high_savings_reduction_survives_the_default_gate() {
        // When the covered relation dominates the query's data, the
        // predicted savings clear the default threshold and the reduction
        // applies as before.  120 extra `other`-typed businesses make
        // `business` (128 rows) the bulk of the 168 base rows; the bank
        // fetch is predicted (and observed) to eliminate most of it.
        let (mut db, schema, _) = setup();
        for i in 0..120 {
            db.insert(
                "business",
                vec![
                    Value::str(format!("x{i}")),
                    Value::str(if i % 2 == 0 { "gym" } else { "cafe" }),
                    Value::str("r9"),
                ],
            )
            .unwrap();
        }
        let indexes = build_indexes(&db, &schema).unwrap();
        let engine = Engine::default();
        let sql = "select c.region, sum(c.duration) as total from call c, business b \
                   where b.type = 'bank' and b.region = 'r0' and b.pnum = c.pnum \
                   and c.date = '2016-07-04' group by c.region order by c.region";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let options = PartialOptions {
            reduction_min_savings: DEFAULT_REDUCTION_MIN_SAVINGS,
        };
        let partial = execute_partially_bounded_with(
            &db, &engine, &bound, &graph, &coverage, &indexes, options, None,
        )
        .unwrap();
        let baseline = engine.run(&db, sql).unwrap();
        assert_eq!(partial.rows, baseline.rows);
        assert_eq!(partial.reduced_relations, vec!["b".to_string()]);
        assert_eq!(partial.reduction_savings.len(), 1);
        assert!(partial.reduction_savings[0].savings_ratio() > 0.9);
    }

    #[test]
    fn quota_trips_inside_the_bounded_fetch_stage() {
        // A 1-tuple quota cannot survive the business fetch: the partially
        // bounded execution must stop with a structured quota error instead
        // of completing (pinning quota enforcement on the bounded engine's
        // fetch path).
        let (db, schema, indexes) = setup();
        let engine = Engine::default();
        let sql = "select c.region, sum(c.duration) as total from call c, business b \
                   where b.type = 'bank' and b.region = 'r0' and b.pnum = c.pnum \
                   and c.date = '2016-07-04' group by c.region order by c.region";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let tracker = beas_common::ResourceQuota::unlimited()
            .with_max_tuples(1)
            .tracker();
        let err = execute_partially_bounded_with(
            &db,
            &engine,
            &bound,
            &graph,
            &coverage,
            &indexes,
            PartialOptions::default(),
            Some(&tracker),
        )
        .expect_err("a 1-tuple quota cannot cover the fetch plus the residual");
        assert_eq!(err.kind(), "quota_exceeded");
        assert!(tracker.is_tripped());
    }

    #[test]
    fn nullable_copy_preserves_columns() {
        let s = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::nullable("b", DataType::Str),
            ],
        )
        .unwrap();
        let c = nullable_copy(&s);
        assert_eq!(c.arity(), 2);
        assert!(c.columns.iter().all(|col| col.nullable));
    }
}
