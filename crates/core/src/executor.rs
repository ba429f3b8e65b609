//! The BE Plan Executor: runs bounded plans against the access-constraint
//! indices.
//!
//! Execution maintains a single growing *context* relation `T` (the
//! intermediate results `T1, T2, ...` of Example 2).  Each `fetch` step looks
//! up the distinct key values present in `T`, retrieves the associated
//! partial tuples through the constraint's modified hash index, joins them
//! back onto `T`, and applies the predicates that have become checkable.
//! Base data is touched **only** inside `fetch`; every other operator works
//! on the bounded intermediates: the plan's finalization is an engine
//! [`LogicalPlan`](beas_engine::LogicalPlan) over the final context, run by
//! the engine's own operators ([`beas_engine::execute`]).
//!
//! Answers are produced under set semantics (distinct rows): constraint
//! indices store distinct partial tuples, which is also why the checker only
//! admits distinct-safe aggregates.

use crate::graph::QueryGraph;
use crate::plan::{BoundedPlan, KeySource, PlannedFetch};
use beas_access::AccessIndexes;
use beas_common::{
    default_workers, morsel_count, morsel_range, scatter, BeasError, DedupeStream, Field,
    FilterStream, MorselQueue, QuotaTracker, Result, Row, RowRef, RowStream, Schema, Value,
};
use beas_engine::{execute, ExecOptions, ExecutionMetrics, Input};
use beas_obs::clock;
use beas_sql::{evaluate_predicate, BoundExpr, BoundQuery};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Minimum number of distinct fetch keys before the key set is partitioned
/// across scoped worker threads.  Spawning a scope's worth of OS threads
/// costs on the order of 100µs, and each key is only a canonicalized hash
/// lookup (~100ns), so parallelism pays for itself only on key sets in the
/// thousands — typical TLC fetches (tens to hundreds of keys) stay serial.
pub const PARALLEL_FETCH_MIN_KEYS: usize = 1024;

/// Upper bound on fetch worker threads.
pub const PARALLEL_FETCH_MAX_WORKERS: usize = 8;

/// Tuning knobs of the bounded fetch stage.
///
/// The defaults are the production values; tests lower `parallel_min_keys`
/// to force the parallel path on a handful of keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchConfig {
    /// Minimum distinct fetch keys before the key set is partitioned across
    /// worker threads (see [`PARALLEL_FETCH_MIN_KEYS`]).
    pub parallel_min_keys: usize,
    /// Upper bound on fetch worker threads.
    pub max_workers: usize,
}

impl Default for FetchConfig {
    fn default() -> Self {
        FetchConfig {
            parallel_min_keys: PARALLEL_FETCH_MIN_KEYS,
            max_workers: PARALLEL_FETCH_MAX_WORKERS,
        }
    }
}

/// The context relation after all fetch steps.
///
/// Context rows are pipelined [`RowRef`]s whose segments borrow the partial
/// tuples straight out of the constraint-index buckets (lifetime `'a` is the
/// index's) — each fetch extends rows by appending segments instead of
/// cloning every value through every stage.
#[derive(Debug, Clone)]
pub struct CtxResult<'a> {
    /// Schema of the context relation (fields carry their atom alias).
    pub schema: Schema,
    /// Distinct context rows.
    pub rows: Vec<RowRef<'a>>,
    /// Per-operator metrics.
    pub metrics: ExecutionMetrics,
    /// Total (partial) tuples fetched through constraint indices.
    pub tuples_accessed: u64,
}

/// The result of a full bounded execution.
#[derive(Debug, Clone)]
pub struct BoundedExecution {
    /// Output rows (set semantics).
    pub rows: Vec<Row>,
    /// Per-operator metrics, including the finalization operators.
    pub metrics: ExecutionMetrics,
    /// Total tuples fetched through constraint indices.
    pub tuples_accessed: u64,
}

/// Execute the fetch stages of a bounded plan, producing the context
/// relation.  Used directly by partially bounded evaluation.
///
/// The quota is charged once per fetch step with the partial tuples that
/// step accessed — fetch steps are the only place bounded plans touch base
/// data — so an in-flight bounded query whose actual access exceeds its
/// budget stops at the next step boundary with a structured quota error.
pub fn execute_ctx_with<'a>(
    plan: &BoundedPlan,
    query: &BoundQuery,
    graph: &QueryGraph,
    indexes: &'a AccessIndexes,
    fetch_config: FetchConfig,
    quota: Option<&QuotaTracker>,
) -> Result<CtxResult<'a>> {
    let mut metrics = ExecutionMetrics::new();
    let mut tuples_accessed: u64 = 0;
    let mut schema = Schema::empty();
    let mut rows: Vec<RowRef<'a>> = vec![RowRef::empty()];
    let start_all = clock::now();

    for fetch in &plan.fetches {
        let start = clock::now();
        if let Some(q) = quota {
            q.checkpoint()?;
        }
        let step = run_fetch(
            fetch,
            query,
            graph,
            indexes,
            &schema,
            &rows,
            fetch_config,
            None,
        )?;
        tuples_accessed += step.accessed;
        if let Some(q) = quota {
            q.charge_tuples(step.accessed)?;
        }

        metrics.record(
            format!("Fetch({})", fetch.constraint.id()),
            step.rows.len() as u64,
            step.accessed,
            start.elapsed(),
        );
        schema = step.schema;
        rows = step.rows;
    }

    metrics.elapsed = start_all.elapsed();
    Ok(CtxResult {
        schema,
        rows,
        metrics,
        tuples_accessed,
    })
}

/// Execute a bounded plan end to end (fetch stages plus finalization).
pub fn execute_bounded(
    plan: &BoundedPlan,
    query: &BoundQuery,
    graph: &QueryGraph,
    indexes: &AccessIndexes,
) -> Result<BoundedExecution> {
    let opts = ExecOptions::default();
    execute_bounded_with(plan, query, graph, indexes, FetchConfig::default(), &opts)
}

/// [`execute_bounded`] with explicit fetch tuning and engine options: the
/// session quota is charged by the fetch steps (see [`execute_ctx_with`])
/// and its deadline re-checked by the finalization's blocking operators.
pub fn execute_bounded_with(
    plan: &BoundedPlan,
    query: &BoundQuery,
    graph: &QueryGraph,
    indexes: &AccessIndexes,
    fetch_config: FetchConfig,
    opts: &ExecOptions<'_>,
) -> Result<BoundedExecution> {
    let start = clock::now();
    let ctx = execute_ctx_with(plan, query, graph, indexes, fetch_config, opts.quota)?;
    let mut metrics = ctx.metrics;
    let rows = finalize(plan, ctx.rows, &mut metrics, opts)?;
    metrics.elapsed = start.elapsed();
    Ok(BoundedExecution {
        rows,
        metrics,
        tuples_accessed: ctx.tuples_accessed,
    })
}

/// Turn the fetched context into the answer by running the plan's
/// finalization on the engine's operators, which append their lines to
/// `metrics` after the fetch steps'.
pub(crate) fn finalize<'a>(
    plan: &'a BoundedPlan,
    context: Vec<RowRef<'a>>,
    metrics: &mut ExecutionMetrics,
    opts: &ExecOptions<'a>,
) -> Result<Vec<Row>> {
    let finalization = plan.finalization.as_ref().map_err(BeasError::clone)?;
    execute(finalization, Input::Context(context), metrics, opts)
}

/// Distinct fetch key → (shared X-prefix segment, borrowed index bucket).
type FetchBuckets<'a> = HashMap<Vec<Value>, (Arc<Row>, &'a [Row])>;

/// A cap on one fetch step, set by resource-bounded approximation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyCap {
    /// Only the first `max_keys` distinct keys (first-seen order) are
    /// candidates for a lookup.
    pub max_keys: usize,
    /// The step stops before the first bucket that would take its accessed
    /// tuples past this.
    pub max_tuples: u64,
}

/// Fetch the buckets of `keys` in order, stopping before the first bucket
/// that would take the accessed tuples past `max_tuples`; returns the
/// buckets taken and the tuples they hold.  A key set large enough to pay
/// for worker threads is looked up in chunks on the shared morsel driver.
///
/// The merge is deterministic: [`scatter`] returns the chunks in key order
/// and each chunk's buckets are positionally aligned with its keys, so the
/// assembled map and the access count are identical to a serial walk over
/// the whole list regardless of thread scheduling.
fn fetch_buckets_keyed<'a>(
    index: &'a beas_storage::ConstraintIndex,
    keys: &[Vec<Value>],
    x_len: usize,
    config: FetchConfig,
    max_tuples: u64,
) -> (FetchBuckets<'a>, u64) {
    let workers = if keys.len() < config.parallel_min_keys {
        1
    } else {
        default_workers(config.max_workers)
    };
    let chunk = keys.len().div_ceil(workers);
    let queue = MorselQueue::new(morsel_count(keys.len(), chunk));
    let fetched = scatter(&queue, workers, |i| {
        let part = &keys[morsel_range(i, keys.len(), chunk)];
        index.fetch_buckets(part.iter().map(|k| k.as_slice())).0
    });
    let mut buckets: FetchBuckets<'a> = HashMap::with_capacity(keys.len());
    let mut accessed = 0u64;
    for (key, bucket) in keys.iter().zip(fetched.results.into_iter().flatten()) {
        if accessed + bucket.len() as u64 > max_tuples {
            break;
        }
        accessed += bucket.len() as u64;
        let x_prefix: Arc<Row> = Arc::new(key[..x_len].to_vec());
        buckets.insert(key.clone(), (x_prefix, bucket));
    }
    (buckets, accessed)
}

/// The pipelined fetch join: context rows × their candidate keys × the
/// key's bucket, yielded lazily.  Every output row is the context row's
/// segments plus one shared `Arc` segment for the key's X-values plus one
/// segment borrowing the partial tuple straight out of the index bucket —
/// neither the bucket nor the context row is cloned value-by-value.
struct FetchJoinStream<'s, 'a> {
    rows: &'s [RowRef<'a>],
    row_keys: &'s [Vec<Vec<Value>>],
    buckets: &'s FetchBuckets<'a>,
    /// Cursor: (context row, candidate key of that row, position in bucket).
    row: usize,
    key: usize,
    pos: usize,
}

impl<'s, 'a> FetchJoinStream<'s, 'a> {
    fn new(
        rows: &'s [RowRef<'a>],
        row_keys: &'s [Vec<Vec<Value>>],
        buckets: &'s FetchBuckets<'a>,
    ) -> Self {
        FetchJoinStream {
            rows,
            row_keys,
            buckets,
            row: 0,
            key: 0,
            pos: 0,
        }
    }
}

impl<'a> RowStream<'a> for FetchJoinStream<'_, 'a> {
    fn next(&mut self) -> Result<Option<RowRef<'a>>> {
        while self.row < self.rows.len() {
            let keys = &self.row_keys[self.row];
            while self.key < keys.len() {
                if let Some((x_prefix, bucket)) = self.buckets.get(&keys[self.key]) {
                    if self.pos < bucket.len() {
                        let mut out = self.rows[self.row].clone();
                        out.push_shared(Arc::clone(x_prefix));
                        out.push_slice(&bucket[self.pos]);
                        self.pos += 1;
                        return Ok(Some(out));
                    }
                }
                self.key += 1;
                self.pos = 0;
            }
            self.row += 1;
            self.key = 0;
            self.pos = 0;
        }
        Ok(None)
    }
}

/// What one fetch step produced.
pub(crate) struct FetchStepOutput<'a> {
    /// The context schema extended with the fetched atom's attributes.
    pub schema: Schema,
    /// The joined, filtered, deduplicated context rows.
    pub rows: Vec<RowRef<'a>>,
    /// Partial tuples accessed through the constraint index.
    pub accessed: u64,
    /// Distinct keys the context asked for.
    pub keys_total: usize,
    /// How many of them were looked up: all, unless a [`KeyCap`] cut the
    /// step short.
    pub keys_fetched: usize,
}

/// The context schema after `fetch`: `schema` plus the X and Y attributes of
/// the fetched atom, qualified by its alias.
pub(crate) fn schema_after_fetch(
    fetch: &PlannedFetch,
    query: &BoundQuery,
    schema: &Schema,
) -> Result<Schema> {
    let atom_schema = &query.tables[fetch.atom].schema;
    let mut fields: Vec<Field> = schema.fields().to_vec();
    for col in fetch.constraint.x.iter().chain(fetch.constraint.y.iter()) {
        let dt = atom_schema
            .column(col)
            .map(|c| c.data_type)
            .ok_or_else(|| {
                BeasError::execution(format!(
                    "constraint column {col:?} missing from table {:?}",
                    atom_schema.name
                ))
            })?;
        fields.push(Field::base(fetch.alias.clone(), col.clone(), dt));
    }
    Ok(Schema::new(fields))
}

/// Run one fetch step over the context `rows`.  With a `cap` only a prefix
/// of the distinct keys is looked up and context rows whose key was left
/// out join nothing — the step resource-bounded approximation runs.
///
/// The join → post-filter → dedupe chain runs as one pull-based pipeline
/// over [`RowStream`] adapters: each joined row is checked against the
/// predicates that became checkable after this fetch and deduplicated
/// incrementally, without materializing the unfiltered join.  Evaluation
/// errors (e.g. a type error in a predicate) propagate, matching the
/// baseline engine, instead of silently dropping rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_fetch<'a>(
    fetch: &PlannedFetch,
    query: &BoundQuery,
    graph: &QueryGraph,
    indexes: &'a AccessIndexes,
    schema: &Schema,
    rows: &[RowRef<'a>],
    fetch_config: FetchConfig,
    cap: Option<KeyCap>,
) -> Result<FetchStepOutput<'a>> {
    let index = indexes.for_constraint(&fetch.constraint).ok_or_else(|| {
        BeasError::execution(format!(
            "no index built for access constraint {}",
            fetch.constraint
        ))
    })?;

    // The declared types of the constraint's key attributes: constants coming
    // from SQL literals (e.g. a date written as a string) are cast to them so
    // that index lookups compare like with like.
    let atom_table_schema = &query.tables[fetch.atom].schema;
    let key_types: Vec<beas_common::DataType> = fetch
        .constraint
        .x
        .iter()
        .map(|c| {
            atom_table_schema
                .column(c)
                .map(|col| col.data_type)
                .ok_or_else(|| {
                    BeasError::execution(format!(
                        "constraint key {c:?} missing from table {:?}",
                        atom_table_schema.name
                    ))
                })
        })
        .collect::<Result<_>>()?;

    // Candidate key values per context row (cartesian product over the key
    // sources; IN-lists expand, constants are fixed, ctx columns read the row).
    let mut ctx_key_indices: Vec<Option<usize>> = Vec::with_capacity(fetch.keys.len());
    for k in &fetch.keys {
        match k {
            KeySource::Ctx(atom, col) => {
                let alias = &query.tables[*atom].alias;
                let idx = schema.index_of_origin(alias, col).ok_or_else(|| {
                    BeasError::execution(format!(
                        "context column {alias}.{col} missing during fetch"
                    ))
                })?;
                ctx_key_indices.push(Some(idx));
            }
            _ => ctx_key_indices.push(None),
        }
    }

    // Collect the distinct keys across all context rows.  Keys are
    // canonicalized through the shared key module (`beas_common::key`) so
    // the lookup agrees with the index and with the baseline joins on
    // numeric/date coercion.  NULL key values are *dropped*: a fetch key
    // stands for an equi-join (or equality predicate) on the constraint's X
    // attributes, and SQL equality never matches NULL — whereas the index
    // groups NULLs with DISTINCT semantics, so looking NULL up would
    // resurrect exactly the rows the baseline joins exclude.
    let mut distinct_keys: Vec<Vec<Value>> = Vec::new();
    let mut seen_keys: HashSet<Vec<Value>> = HashSet::new();
    let mut row_keys: Vec<Vec<Vec<Value>>> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut alternatives: Vec<Vec<Value>> = vec![vec![]];
        for ((k, ctx_idx), key_type) in fetch.keys.iter().zip(&ctx_key_indices).zip(&key_types) {
            let raw: Vec<Value> = match (k, ctx_idx) {
                (KeySource::Constant(v), _) => vec![v.clone()],
                (KeySource::Constants(vs), _) => vs.clone(),
                (KeySource::Ctx(_, _), Some(i)) => {
                    vec![row
                        .get(*i)
                        .cloned()
                        .ok_or_else(|| BeasError::execution("context key out of bounds"))?]
                }
                (KeySource::Ctx(_, _), None) => unreachable!("resolved above"),
            };
            let options: Vec<Value> = raw
                .into_iter()
                // NULL never equals anything: it contributes no key option
                .filter(|v| !v.is_null())
                .map(|v| {
                    v.cast(*key_type)
                        .map(|c| beas_common::canonical_key_value(&c))
                })
                .collect::<Result<_>>()?;
            let mut next = Vec::with_capacity(alternatives.len() * options.len());
            for alt in &alternatives {
                for opt in &options {
                    let mut key = alt.clone();
                    key.push(opt.clone());
                    next.push(key);
                }
            }
            // a key position with no non-NULL option leaves the row keyless:
            // it joins nothing, exactly like a NULL join key in the baseline
            alternatives = next;
        }
        for key in &alternatives {
            if seen_keys.insert(key.clone()) {
                distinct_keys.push(key.clone());
            }
        }
        row_keys.push(alternatives);
    }

    // Fetch each distinct key once, counting accessed partial tuples.  The
    // bucket slices are borrowed from the index — no copy — and the key's
    // X-prefix becomes a single shared segment reused by every joined row.
    // Under a cap only a prefix of the keys, in first-seen order, is fetched.
    let x_len = fetch.constraint.x.len();
    let (candidates, max_tuples) = match cap {
        Some(cap) => (distinct_keys.len().min(cap.max_keys), cap.max_tuples),
        None => (distinct_keys.len(), u64::MAX),
    };
    let (buckets, accessed) = fetch_buckets_keyed(
        index,
        &distinct_keys[..candidates],
        x_len,
        fetch_config,
        max_tuples,
    );

    let new_schema = schema_after_fetch(fetch, query, schema)?;

    // Join → post-filter → dedupe as one pull-based pipeline.
    let mut filters = Vec::with_capacity(fetch.post_filters.len());
    for pred in &fetch.post_filters {
        filters.push(rewrite_to_ctx(pred, query, graph, &new_schema)?);
    }
    let mut stream: Box<dyn RowStream<'a> + '_> =
        Box::new(FetchJoinStream::new(rows, &row_keys, &buckets));
    for pred in filters {
        stream = Box::new(FilterStream::new(stream, move |row: &RowRef<'a>| {
            evaluate_predicate(&pred, row)
        }));
    }
    // Set semantics: the context holds distinct rows.
    let new_rows = DedupeStream::new(stream).collect_rows()?;
    Ok(FetchStepOutput {
        schema: new_schema,
        rows: new_rows,
        accessed,
        keys_total: distinct_keys.len(),
        keys_fetched: buckets.len(),
    })
}

/// Rewrite an expression bound over the query's flat input schema so that it
/// reads from the context relation instead.  Columns not present in the
/// context are substituted through their equivalence class (an equated
/// context column or a constant).
pub fn rewrite_to_ctx(
    expr: &BoundExpr,
    query: &BoundQuery,
    graph: &QueryGraph,
    ctx_schema: &Schema,
) -> Result<BoundExpr> {
    let classes = graph.equivalence_classes();
    let mut substitutions: HashMap<usize, BoundExpr> = HashMap::new();
    for col in expr.referenced_columns() {
        let field = query.input_schema.field(col);
        let alias = field.table.clone().ok_or_else(|| {
            BeasError::execution(format!("column {} has no table origin", field.name))
        })?;
        // direct hit
        if let Some(i) = ctx_schema.index_of_origin(&alias, &field.name) {
            substitutions.insert(col, BoundExpr::Column(i));
            continue;
        }
        // through the equivalence class
        let (atom_idx, _) = crate::graph::atom_of_column(query, col);
        let term = (atom_idx, field.name.clone());
        let mut found = None;
        if let Some(class) = classes.iter().find(|c| c.contains(&term)) {
            for member in class {
                let member_alias = &query.tables[member.0].alias;
                if let Some(i) = ctx_schema.index_of_origin(member_alias, &member.1) {
                    found = Some(BoundExpr::Column(i));
                    break;
                }
            }
            if found.is_none() {
                found = graph.constant_for(&term, &classes).map(|c| c.to_expr());
            }
        } else if let Some(c) = graph.constants.get(&term) {
            found = Some(c.to_expr());
        }
        let replacement = found.ok_or_else(|| {
            BeasError::execution(format!(
                "column {}.{} is not available in the bounded context {ctx_schema}",
                alias, field.name
            ))
        })?;
        substitutions.insert(col, replacement);
    }
    Ok(expr.map_leaves(&|leaf| match leaf {
        BoundExpr::Column(i) => substitutions[i].clone(),
        constant => constant.clone(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::graph::QueryGraph;
    use crate::planner::generate_bounded_plan;
    use beas_access::{build_indexes, AccessConstraint, AccessSchema};
    use beas_common::{ColumnDef, DataType, TableSchema};
    use beas_sql::{parse_select, Binder};
    use beas_storage::Database;

    /// A small instance of the Example 1 schema with known answers.
    fn setup() -> (Database, AccessSchema, AccessIndexes) {
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
                "package",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("pid", DataType::Int),
                    ColumnDef::new("start_month", DataType::Int),
                    ColumnDef::new("end_month", DataType::Int),
                    ColumnDef::new("year", DataType::Int),
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

        // businesses: two banks in r0 (b1, b2), one hospital (b3)
        for (p, t, r) in [
            ("b1", "bank", "r0"),
            ("b2", "bank", "r0"),
            ("b3", "hospital", "r0"),
        ] {
            db.insert(
                "business",
                vec![Value::str(p), Value::str(t), Value::str(r)],
            )
            .unwrap();
        }
        // packages: b1 in package 7 covering month 7 of 2016; b2 in package 9
        for (p, pid, s, e, y) in [
            ("b1", 7, 1, 12, 2016),
            ("b2", 9, 6, 8, 2016),
            ("b1", 7, 1, 12, 2015),
        ] {
            db.insert(
                "package",
                vec![
                    Value::str(p),
                    Value::Int(pid),
                    Value::Int(s),
                    Value::Int(e),
                    Value::Int(y),
                ],
            )
            .unwrap();
        }
        // calls on 2016-07-04: b1 calls x (east) and y (west); b2 calls z (east);
        // b3 calls w (north); b1 also calls q on another date
        for (p, r, d, reg) in [
            ("b1", "x", "2016-07-04", "east"),
            ("b1", "y", "2016-07-04", "west"),
            ("b2", "z", "2016-07-04", "east"),
            ("b3", "w", "2016-07-04", "north"),
            ("b1", "q", "2016-08-01", "south"),
        ] {
            db.insert(
                "call",
                vec![Value::str(p), Value::str(r), Value::str(d), Value::str(reg)],
            )
            .unwrap();
        }

        let schema = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum", "region"], 500).unwrap(),
            AccessConstraint::new(
                "package",
                &["pnum", "year"],
                &["pid", "start_month", "end_month"],
                12,
            )
            .unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
        ]);
        let indexes = build_indexes(&db, &schema).unwrap();
        (db, schema, indexes)
    }

    fn run(sql: &str) -> BoundedExecution {
        let (db, schema, indexes) = setup();
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        execute_bounded(&plan, &bound, &graph, &indexes).unwrap()
    }

    #[test]
    fn example2_style_query_returns_exact_answer() {
        // regions of numbers called by banks in r0 on 2016-07-04 that were in
        // package 7 of 2016 covering month 7 -> only b1 qualifies -> east, west
        let result = run("select call.region from call, package, business \
             where business.type = 'bank' and business.region = 'r0' and \
             business.pnum = call.pnum and call.date = '2016-07-04' and \
             call.pnum = package.pnum and package.year = 2016 \
             and package.start_month <= 7 and package.end_month >= 7 and package.pid = 7");
        let mut regions: Vec<String> = result
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        regions.sort();
        assert_eq!(regions, vec!["east", "west"]);
        // tuples accessed: 2 business partial tuples (b1, b2), 2+1 packages
        // (one per year key hit), 2+1 calls
        assert!(result.tuples_accessed > 0);
        assert!(result.tuples_accessed <= 10);
        assert!(result.metrics.render().contains("Fetch"));
    }

    #[test]
    fn single_table_fetch() {
        let result =
            run("select recnum, region from call where pnum = 'b1' and date = '2016-07-04'");
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.tuples_accessed, 2);
    }

    #[test]
    fn fetch_with_in_list_keys() {
        let result = run(
            "select recnum from call where pnum in ('b1', 'b2') and date = '2016-07-04' order by recnum",
        );
        let names: Vec<&str> = result.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }

    #[test]
    fn aggregates_over_bounded_context() {
        let result = run(
            "select call.region, count(distinct call.recnum) from call, business \
             where business.type = 'bank' and business.region = 'r0' \
             and business.pnum = call.pnum and call.date = '2016-07-04' \
             group by call.region order by call.region",
        );
        // banks b1, b2 called: east x (b1), west y (b1), east z (b2)
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0], vec![Value::str("east"), Value::Int(2)]);
        assert_eq!(result.rows[1], vec![Value::str("west"), Value::Int(1)]);
    }

    #[test]
    fn limit_and_order_are_applied() {
        let result = run(
            "select recnum from call where pnum = 'b1' and date = '2016-07-04' \
             order by recnum desc limit 1",
        );
        assert_eq!(result.rows, vec![vec![Value::str("y")]]);
    }

    #[test]
    fn empty_key_produces_empty_answer() {
        let result = run("select recnum from call where pnum = 'unknown' and date = '2016-07-04'");
        assert!(result.rows.is_empty());
        assert_eq!(result.tuples_accessed, 0);
    }

    #[test]
    fn missing_index_is_an_error() {
        let (db, schema, _) = setup();
        let bound = Binder::new(&db)
            .bind(
                &parse_select("select recnum from call where pnum = 'b1' and date = '2016-07-04'")
                    .unwrap(),
            )
            .unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let empty = AccessIndexes::new();
        assert!(execute_bounded(&plan, &bound, &graph, &empty).is_err());
    }

    #[test]
    fn type_error_predicates_propagate_like_the_baseline() {
        // `region` is a Str column; comparing it to an Int is a runtime type
        // error.  The bounded executor used to swallow it via
        // `unwrap_or(false)` and silently return an empty answer while the
        // baseline errored — the two engines must fail identically instead.
        let (db, schema, indexes) = setup();
        let sql = "select recnum from call \
                   where pnum = 'b1' and date = '2016-07-04' and region > 5";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let bounded = execute_bounded(&plan, &bound, &graph, &indexes);
        let baseline = beas_engine::Engine::default().run(&db, sql);
        let bounded_err = bounded.expect_err("bounded must propagate the type error");
        let baseline_err = baseline.expect_err("baseline must propagate the type error");
        assert_eq!(bounded_err.kind(), baseline_err.kind());
        assert_eq!(bounded_err.kind(), "type");
    }

    #[test]
    fn approximation_fails_exactly_where_exact_execution_does() {
        // Approximation runs the exact executor's fetch step, so it inherits
        // its error discipline: a type error in a predicate, and a key
        // literal that cannot be cast to the constraint's key type, surface
        // with the same kind on both paths instead of a silent answer.
        let (db, schema, indexes) = setup();
        for (sql, kind) in [
            (
                "select recnum from call \
                 where pnum = 'b1' and date = '2016-07-04' and region > 5",
                "type",
            ),
            (
                "select recnum from call where pnum = 'b1' and date = 'not-a-date'",
                "parse",
            ),
        ] {
            let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
            let graph = QueryGraph::build(&bound).unwrap();
            let coverage = Checker::new(&schema).check(&bound, &graph);
            assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
            let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
            let exact = execute_bounded(&plan, &bound, &graph, &indexes)
                .expect_err("exact execution must fail");
            let approx = crate::approx::execute_with_budget(&plan, &bound, &graph, &indexes, 1_000)
                .expect_err("approximation must fail, not answer");
            assert_eq!(approx.kind(), exact.kind(), "{sql}");
            assert_eq!(exact.kind(), kind, "{sql}");
        }
    }

    #[test]
    fn order_by_limit_with_ties_equals_the_full_sort_prefix() {
        // The finalization's Sort under a Limit runs the engine's stable
        // top-k heap: with ties on the sort key its answer must be exactly
        // the prefix of the full (stable) sort, for every k.
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        // 12 distinct receivers spread over 3 regions: every region ties 4x
        for i in 0..12 {
            db.insert(
                "call",
                vec![
                    Value::str("b1"),
                    Value::str(format!("r{:02}", (i * 7) % 12)),
                    Value::str(["east", "west", "north"][i % 3]),
                ],
            )
            .unwrap();
        }
        let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
            "call",
            &["pnum"],
            &["recnum", "region"],
            100,
        )
        .unwrap()]);
        let indexes = build_indexes(&db, &schema).unwrap();
        let run = |sql: &str| {
            let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
            let graph = QueryGraph::build(&bound).unwrap();
            let coverage = Checker::new(&schema).check(&bound, &graph);
            assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
            let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
            execute_bounded(&plan, &bound, &graph, &indexes).unwrap()
        };
        let base = "select recnum, region from call where pnum = 'b1' order by region desc";
        let full = run(base).rows;
        assert_eq!(full.len(), 12);
        for k in [0, 1, 4, 5, 11, 12, 20] {
            let limited = run(&format!("{base} limit {k}"));
            assert_eq!(limited.rows, full[..k.min(12)], "limit {k}");
            assert!(limited.metrics.render().contains("Sort"));
        }
    }

    #[test]
    fn null_fetch_keys_join_nothing_like_the_baseline() {
        // business.pnum is nullable; the fetch of `call` is keyed on the
        // context's pnum values.  The constraint index groups NULLs
        // (DISTINCT semantics), but SQL equality never matches NULL — a NULL
        // context key must fetch nothing, exactly like the baseline join.
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::nullable("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "business",
                vec![
                    ColumnDef::nullable("pnum", DataType::Str),
                    ColumnDef::new("type", DataType::Str),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        // one bank with a NULL pnum — it must not join the NULL-pnum call
        for (p, t, r) in [
            (Value::str("b1"), "bank", "r0"),
            (Value::Null, "bank", "r0"),
        ] {
            db.insert("business", vec![p, Value::str(t), Value::str(r)])
                .unwrap();
        }
        for (p, rec) in [
            (Value::str("b1"), "x"),
            (Value::Null, "null-call"),
            (Value::str("b2"), "y"),
        ] {
            db.insert("call", vec![p, Value::str(rec), Value::str("2016-07-04")])
                .unwrap();
        }
        let schema = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum"], 500).unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 2000).unwrap(),
        ]);
        let indexes = build_indexes(&db, &schema).unwrap();
        let sql = "select distinct call.recnum from call, business \
                   where business.type = 'bank' and business.region = 'r0' \
                   and business.pnum = call.pnum and call.date = '2016-07-04'";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let bounded = execute_bounded(&plan, &bound, &graph, &indexes).unwrap();
        let baseline = beas_engine::Engine::default().run(&db, sql).unwrap();
        let canon = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
            rows
        };
        assert_eq!(canon(bounded.rows.clone()), canon(baseline.rows));
        // only the b1 call qualifies; the NULL-keyed call must be absent
        assert_eq!(bounded.rows, vec![vec![Value::str("x")]]);
    }

    #[test]
    fn parallel_fetch_over_many_keys_matches_baseline() {
        // Enough distinct context keys to cross PARALLEL_FETCH_MIN_KEYS, so
        // the second fetch partitions its key set across worker threads.
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "call",
                vec![
                    ColumnDef::new("pnum", DataType::Str),
                    ColumnDef::new("recnum", DataType::Str),
                    ColumnDef::new("date", DataType::Date),
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
        let n = PARALLEL_FETCH_MIN_KEYS * 3;
        for i in 0..n {
            db.insert(
                "business",
                vec![
                    Value::str(format!("p{i}")),
                    Value::str("bank"),
                    Value::str("r0"),
                ],
            )
            .unwrap();
            for r in 0..2 {
                db.insert(
                    "call",
                    vec![
                        Value::str(format!("p{i}")),
                        Value::str(format!("rec{i}_{r}")),
                        Value::str("2016-07-04"),
                    ],
                )
                .unwrap();
            }
        }
        let schema = AccessSchema::from_constraints(vec![
            AccessConstraint::new("call", &["pnum", "date"], &["recnum"], 10).unwrap(),
            AccessConstraint::new("business", &["type", "region"], &["pnum"], 5000).unwrap(),
        ]);
        let indexes = build_indexes(&db, &schema).unwrap();
        let sql = "select distinct call.recnum from call, business \
                   where business.type = 'bank' and business.region = 'r0' \
                   and business.pnum = call.pnum and call.date = '2016-07-04'";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        assert!(coverage.covered, "not covered: {:?}", coverage.reasons);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let bounded = execute_bounded(&plan, &bound, &graph, &indexes).unwrap();
        assert_eq!(bounded.rows.len(), n * 2);
        let baseline = beas_engine::Engine::default().run(&db, sql).unwrap();
        let canon = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
            rows
        };
        assert_eq!(canon(bounded.rows), canon(baseline.rows));
        // every (pnum, date) bucket was fetched exactly once
        assert_eq!(bounded.tuples_accessed, (n + n * 2) as u64);
    }

    #[test]
    fn bounded_quota_charges_fetches_and_trips_early() {
        let (db, schema, indexes) = setup();
        let sql = "select recnum, region from call where pnum = 'b1' and date = '2016-07-04'";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        // a generous quota: the execution succeeds and the tracker accounts
        // for exactly the tuples the metrics report
        let tracker = beas_common::ResourceQuota::unlimited()
            .with_max_tuples(100)
            .tracker();
        let charged = ExecOptions {
            quota: Some(&tracker),
            ..ExecOptions::default()
        };
        let fetch = FetchConfig::default();
        let ok = execute_bounded_with(&plan, &bound, &graph, &indexes, fetch, &charged).unwrap();
        assert_eq!(tracker.tuples_used(), ok.tuples_accessed);
        // a 1-tuple quota trips on the 2-tuple fetch with a structured error
        let tight = beas_common::ResourceQuota::unlimited()
            .with_max_tuples(1)
            .tracker();
        let charged = ExecOptions {
            quota: Some(&tight),
            ..ExecOptions::default()
        };
        let err = execute_bounded_with(&plan, &bound, &graph, &indexes, fetch, &charged)
            .expect_err("fetch exceeds the 1-tuple quota");
        assert_eq!(err.kind(), "quota_exceeded");
        assert!(tight.is_tripped());
    }

    #[test]
    fn fetch_config_min_keys_forces_the_parallel_path_without_changing_answers() {
        // parallel_min_keys = 1 partitions even this query's handful of
        // fetch keys across worker threads; rows, order and accounting must
        // equal the serial fetch exactly (deterministic positional merge).
        let (db, schema, indexes) = setup();
        let sql = "select recnum from call where pnum in ('b1', 'b2') \
                   and date = '2016-07-04' order by recnum";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let serial = execute_bounded(&plan, &bound, &graph, &indexes).unwrap();
        let forced = FetchConfig {
            parallel_min_keys: 1,
            max_workers: 4,
        };
        let opts = ExecOptions::default();
        let parallel =
            execute_bounded_with(&plan, &bound, &graph, &indexes, forced, &opts).unwrap();
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.tuples_accessed, parallel.tuples_accessed);
    }

    #[test]
    fn bounded_answers_match_baseline_engine() {
        let (db, schema, indexes) = setup();
        let sql = "select distinct call.region from call, business \
                   where business.type = 'bank' and business.region = 'r0' \
                   and business.pnum = call.pnum and call.date = '2016-07-04'";
        let bound = Binder::new(&db).bind(&parse_select(sql).unwrap()).unwrap();
        let graph = QueryGraph::build(&bound).unwrap();
        let coverage = Checker::new(&schema).check(&bound, &graph);
        let plan = generate_bounded_plan(&bound, &graph, &coverage).unwrap();
        let bounded = execute_bounded(&plan, &bound, &graph, &indexes).unwrap();
        let baseline = beas_engine::Engine::default().run(&db, sql).unwrap();
        let mut a = bounded.rows.clone();
        let mut b = baseline.rows.clone();
        a.sort_by(|x, y| x[0].total_cmp(&y[0]));
        b.sort_by(|x, y| x[0].total_cmp(&y[0]));
        assert_eq!(a, b);
        // and the bounded run touched far fewer tuples than the full scans
        assert!(bounded.tuples_accessed < baseline.metrics.total_tuples_accessed());
    }
}
