//! The BEAS system facade: the online services (BE Query Planner + BE Plan
//! Executor) wired to a database, an access schema and its indices.
//!
//! This is the API an application uses:
//!
//! 1. load (or generate) data into a [`Database`];
//! 2. register an access schema — hand-written, parsed from text, or
//!    discovered from a workload — and build its indices;
//! 3. submit SQL.  BEAS checks coverage; covered queries run as bounded
//!    plans, everything else runs as a partially bounded plan over the
//!    conventional engine, exactly as described in §3 of the paper.

use crate::analyzer::{QueryAnalysis, SystemMeasurement, BASELINE_LABEL};
use crate::approx::{execute_with_budget, ApproximateExecution};
use crate::checker::{Checker, CoverageResult};
use crate::discovery::{discover, DiscoveryConfig};
use crate::executor::{execute_bounded_with, FetchConfig};
use crate::graph::QueryGraph;
use crate::partial::{
    execute_partially_bounded_with, PartialOptions, DEFAULT_REDUCTION_MIN_SAVINGS,
};
use crate::plan::BoundedPlan;
use crate::planner::generate_bounded_plan;
use beas_access::{
    build_indexes, AccessIndexes, AccessSchema, Maintainer, MaintenanceOutcome, MaintenancePolicy,
};
use beas_common::{BeasError, QuotaTracker, Result, Row, Schema, Value};
use beas_engine::{
    analyze_tree, Engine, ExecOptions, ExecProfile, ExecutionMetrics, ParallelConfig,
    PlanCacheOutcome, PlanCacheStats,
};
use beas_sql::{lift_literals, parse_select, Binder, BoundQuery};
use beas_storage::Database;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a query was ultimately evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluationMode {
    /// Fully bounded plan: every data access went through an access
    /// constraint index.
    Bounded,
    /// Partially bounded: covered sub-queries were fetched boundedly, the
    /// residue ran on the conventional engine.
    PartiallyBounded,
    /// Pure conventional evaluation (nothing was covered).
    Conventional,
}

/// The outcome of executing a query through BEAS.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// Answer rows.
    pub rows: Vec<Row>,
    /// Output schema.
    pub schema: Schema,
    /// Whether the query ran as a fully bounded plan.
    pub bounded: bool,
    /// The evaluation mode used.
    pub mode: EvaluationMode,
    /// Tuples accessed (fetched through indices plus scanned by any residue).
    pub tuples_accessed: u64,
    /// Deduced bound on data access (fully bounded plans only).
    pub deduced_bound: Option<u64>,
    /// Number of access constraints employed.
    pub constraints_used: usize,
    /// Per-operator metrics.
    pub metrics: ExecutionMetrics,
}

/// A coverage / budget check result returned without executing the query
/// (demo scenario 1(a)).
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Whether the query is boundedly evaluable (covered).
    pub covered: bool,
    /// The deduced bound on tuples accessed, when covered.
    pub deduced_bound: Option<u64>,
    /// The bounded plan (when covered), with per-fetch bound annotations.
    pub plan: Option<BoundedPlan>,
    /// The raw coverage result (fetch sequence, reasons when uncovered).
    pub coverage: CoverageResult,
}

/// What a [`PreparedQuery`] is a function of: the catalog (which tables
/// exist, with which columns) and the access schema (constraints and their
/// bounds).  Rows are not part of it.  Both halves are lineage-unique
/// stamps, so within the forks of one system equal epochs mean the same
/// catalog and the same access schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchemaEpoch {
    /// [`Database::catalog_epoch`]: moved by create/drop table.
    catalog: u64,
    /// Moved by every change to a constraint or a bound.
    access: u64,
}

/// A fully prepared query — the output of parse → bind → graph → check →
/// plan, stamped with the schema epoch it was computed under.  Cached
/// entries are shared (`Arc`), so a cache hit costs one hash lookup and no
/// cloning.
///
/// The struct is deliberately opaque: callers obtain one from
/// [`BeasSystem::prepare`] and hand it back to
/// [`BeasSystem::execute_prepared`] /
/// [`BeasSystem::approximate_prepared`] /
/// [`BeasSystem::estimate_conventional_tuples_prepared`], so one cache
/// acquisition serves a whole admission → execution round trip.
///
/// Two prepared queries are equal when every stage produced the same:
/// the oracle that a statement instantiated from its shape's template is
/// the statement prepared on its own.
#[derive(Debug, PartialEq)]
pub struct PreparedQuery {
    epoch: SchemaEpoch,
    /// The literal values lifted out of the statement, in slot order.
    params: Vec<Value>,
    query: BoundQuery,
    graph: QueryGraph,
    coverage: Arc<CoverageResult>,
    /// The bounded plan when the query is covered.
    plan: Option<BoundedPlan>,
}

impl PreparedQuery {
    /// Whether the registered access schema covers the query (a bounded
    /// plan exists).
    pub fn covered(&self) -> bool {
        self.plan.is_some()
    }

    /// The deduced bound on tuples accessed, when covered.
    pub fn deduced_bound(&self) -> Option<u64> {
        self.plan.as_ref().map(|p| p.total_bound)
    }

    /// The prepared form of the statement that has the query shape of
    /// `self` — a template, whose literals are still parameter slots — and
    /// the literal values `values`: what preparing that statement from its
    /// text would produce.  Only nodes that carry a literal are copied
    /// (predicates, graph constants, fetch keys and post-filters, the
    /// finalization's expressions); schemas, table factors, atoms, equality
    /// edges and the coverage result are shared with the template.
    fn instantiate(&self, values: Vec<Value>) -> PreparedQuery {
        assert_eq!(
            values.len(),
            self.params.len(),
            "a statement has one literal per slot of its shape"
        );
        PreparedQuery {
            epoch: self.epoch,
            query: self.query.bind_params(&values),
            graph: self.graph.bind_params(&values),
            coverage: Arc::clone(&self.coverage),
            plan: self.plan.as_ref().map(|p| p.bind_params(&values)),
            params: values,
        }
    }
}

/// The plan cache: one plan per query **shape**, behind an exact-match
/// front keyed by text.
///
/// * `texts` maps SQL text, as submitted, to the statement's prepared
///   query.  A repeated text costs one hash lookup and nothing else — no
///   lexing, no copying.  A re-cased, re-spaced or commented text is a new
///   text of a known shape: the lexer pass below reaches its plan.
/// * `shapes` maps a shape key ([`lift_literals`]: the statement with the
///   literals of WHERE / JOIN ON / HAVING replaced by typed placeholders) to
///   the shape's *template*: the prepared query whose literal-carrying
///   nodes still know their parameter slot.  A text not seen before whose
///   shape is known costs a lexer pass and
///   [`PreparedQuery::instantiate`]; only a new shape runs parse → bind →
///   graph → check → plan.
///
/// **Why one plan serves every statement of a shape.**  Nothing the cache
/// stores depends on the *value* of a lifted literal:
///
/// * the binder resolves names and types; the cases where it compares
///   literals by value (merging aggregate calls, matching HAVING against
///   group keys) and the parser's folding of negative literals are exactly
///   the literals the lexer pass does not lift;
/// * the query graph classifies a conjunct by its form (`column = constant`,
///   `column IN (constants)`, ...), and the first constant per attribute
///   wins by position, not by value;
/// * coverage reads which attributes are bound to constants; the plan's
///   fetch order and deduced bound read constraint cardinalities and
///   IN-list *lengths*, which are part of the shape key;
/// * admission's estimate for an uncovered query reads atoms and equality
///   edges ([`BeasSystem::estimate_conventional_tuples_prepared`]).
///
/// What does depend on a value runs per execution, on the instantiated
/// query: the cast of a key literal to its column's type and its failure
/// (`'2016-07-04'` → DATE, in the fetch step), every predicate, and the
/// baseline planner's selectivity estimates.
///
/// A plan that is only right for *some* parameter vectors breaks the
/// argument.  Six were found with this cache and are plans no more (see
/// `tests/end_to_end.rs`): a second constant, or IN-list, on one attribute
/// replacing the first (the graph now keeps it as a filter); a join whose
/// ends were each keyed by a constant of their own, or by an IN-list, or
/// were both fetched attributes, never being compared (the planner now
/// checks every equality that lookups do not enforce); and a constant on an
/// attribute no constraint fetches never being checked (such a query is
/// not covered).
///
/// A prepared query depends on the catalog and the access schema only, so
/// an entry of either map is valid for as long as the [`SchemaEpoch`] it
/// was prepared under stands: data writes invalidate nothing (execution
/// reads the rows and indices of the snapshot it runs on, never the cache),
/// while DDL and constraint or bound changes invalidate every entry.
#[derive(Debug, Default)]
struct PlanCache {
    texts: CacheMap,
    shapes: CacheMap,
    /// Allocator of access-schema epochs, shared by every fork that shares
    /// the cache so that forks diverging independently never reuse one.
    access_epochs: AtomicU64,
    hits: AtomicU64,
    shape_hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

/// One keyed map of the plan cache.
#[derive(Debug, Default)]
struct CacheMap(Mutex<HashMap<String, Arc<PreparedQuery>>>);

/// Bound on the entries of each cache map; prevents unbounded growth under
/// ad-hoc workloads.  A full map is emptied: an evicted text costs one
/// instantiation to bring back, and shapes number far fewer than this in a
/// repeating workload.
const PLAN_CACHE_CAP: usize = 256;

impl CacheMap {
    /// The entry for `key` if it was prepared under `epoch`.  An entry from
    /// another epoch is evicted and reported through `stale`.
    fn get(&self, key: &str, epoch: SchemaEpoch, stale: &mut bool) -> Option<Arc<PreparedQuery>> {
        let mut entries = self.0.lock().expect("plan cache lock");
        match entries.get(key) {
            Some(entry) if entry.epoch == epoch => Some(Arc::clone(entry)),
            Some(_) => {
                // freed with the lock released, like a full map's entries
                let evicted = entries.remove(key);
                drop(entries);
                drop(evicted);
                *stale = true;
                None
            }
            None => None,
        }
    }

    fn insert(&self, key: String, entry: Arc<PreparedQuery>) {
        let evicted = {
            let mut entries = self.0.lock().expect("plan cache lock");
            let evicted = if entries.len() >= PLAN_CACHE_CAP {
                std::mem::take(&mut *entries)
            } else {
                HashMap::new()
            };
            entries.insert(key, entry);
            evicted
        };
        // Up to `PLAN_CACHE_CAP` deep prepared queries: freed with the lock
        // released, so the other sessions' lookups do not wait for it.
        drop(evicted);
    }

    fn clear(&self) {
        let evicted = std::mem::take(&mut *self.0.lock().expect("plan cache lock"));
        drop(evicted);
    }

    /// The entries, for validation.
    #[cfg(any(debug_assertions, feature = "validate"))]
    fn snapshot(&self) -> Vec<(String, Arc<PreparedQuery>)> {
        let entries = self.0.lock().expect("plan cache lock");
        entries
            .iter()
            .map(|(key, entry)| (key.clone(), Arc::clone(entry)))
            .collect()
    }
}

impl PlanCache {
    /// Count one lookup: a hit by text or by shape, or a miss; `stale` says
    /// it found an entry of another epoch on the way.
    fn count(&self, outcome: PlanCacheOutcome, stale: bool) {
        let counter = match outcome {
            PlanCacheOutcome::TextHit => &self.hits,
            PlanCacheOutcome::ShapeHit => {
                self.shape_hits.fetch_add(1, Ordering::Relaxed);
                &self.hits
            }
            PlanCacheOutcome::Miss => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if stale {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn clear(&self) {
        self.texts.clear();
        self.shapes.clear();
    }

    fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            shape_hits: self.shape_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// The BEAS system.
///
/// The struct is `Sync`: every read path (`check`, `execute_sql`,
/// `approximate`, the plan cache) works through `&self` with interior
/// mutability limited to atomics and short-lived mutexes, so an
/// `Arc<BeasSystem>` can serve concurrent reader threads — the property the
/// `beas_service` snapshot model builds on.  Maintenance writes still take
/// `&mut self` and therefore serialize by construction.
#[derive(Debug)]
pub struct BeasSystem {
    db: Database,
    schema: AccessSchema,
    indexes: AccessIndexes,
    fallback: Engine,
    /// Shared across [`BeasSystem::fork`]ed copies: forks of one lineage
    /// serve one logical cache (entries are validated against the schema
    /// epoch they were prepared under, so a fork whose access schema or
    /// catalog diverged never serves another's plan) and its counters
    /// aggregate across all of them.
    plan_cache: Arc<PlanCache>,
    /// Stamp of this system's access schema, drawn from the shared cache's
    /// allocator whenever a constraint or a bound changes.
    access_epoch: u64,
    maintenance_policy: MaintenancePolicy,
}

impl BeasSystem {
    /// Assemble a system from a database, an access schema and pre-built
    /// indices (see [`beas_access::build_indexes`]).
    pub fn new(db: Database, schema: AccessSchema, indexes: AccessIndexes) -> Self {
        BeasSystem {
            db,
            schema,
            indexes,
            fallback: Engine::default(),
            plan_cache: Arc::new(PlanCache::default()),
            access_epoch: 0,
            maintenance_policy: MaintenancePolicy::Strict,
        }
    }

    /// A copy-on-write fork: clones the database, access schema and indices
    /// *structurally* — tables are `Arc`-shared row segments and constraint
    /// indices `Arc`-shared hash shards of `Arc`-shared buckets, so the
    /// fork costs O(tables + segment handles), not O(rows); a subsequent
    /// write to either copy never touches what the other can see: it opens
    /// a new tail segment and copies only the buckets it changes.  The plan
    /// cache is *shared*, so cached prepared queries and their hit/miss
    /// counters survive across forks of one system lineage.  This is the
    /// snapshot primitive of `beas_service`: a writer forks the current
    /// snapshot, applies a maintenance batch to the fork (paying only for
    /// the rows the batch moves), and publishes it; readers keep executing
    /// against the old snapshot until the swap, and what the old generation
    /// alone still holds — itself proportional to the batch — is freed when
    /// its last reader drops.
    ///
    /// Sharing the cache across forks is sound even if several forks are
    /// mutated independently: a cached entry answers only a system at the
    /// schema epoch it was prepared under, and both halves of the epoch are
    /// drawn from lineage-shared allocators, so two forks can never reach
    /// the same epoch with different catalogs or access schemas.
    pub fn fork(&self) -> BeasSystem {
        BeasSystem {
            db: self.db.clone(),
            schema: self.schema.clone(),
            indexes: self.indexes.clone(),
            fallback: self.fallback,
            plan_cache: Arc::clone(&self.plan_cache),
            access_epoch: self.access_epoch,
            maintenance_policy: self.maintenance_policy,
        }
    }

    /// Assemble a system, building the constraint indices in the process.
    pub fn with_schema(db: Database, schema: AccessSchema) -> Result<Self> {
        let indexes = build_indexes(&db, &schema)?;
        Ok(BeasSystem::new(db, schema, indexes))
    }

    /// Assemble a system by discovering an access schema from a workload.
    pub fn from_discovery(
        db: Database,
        workload: &[String],
        config: &DiscoveryConfig,
    ) -> Result<Self> {
        let (schema, _) = discover(&db, workload, config)?;
        BeasSystem::with_schema(db, schema)
    }

    /// The fallback engine's columnar-scan morsel size (always the default:
    /// kept for the callers that configure an engine like the fallback).
    pub fn parallel_fallback(&self) -> ParallelConfig {
        self.fallback.parallelism()
    }

    /// Choose how the fallback engine *executes* plans: the columnar kernel
    /// path (the default) or the row-at-a-time reference pipeline.  This is
    /// a physical property — answers, order, errors and tuple accounting are
    /// identical under every profile, and cached plans stay valid across
    /// knob changes.
    pub fn with_exec_fallback(mut self, exec: ExecProfile) -> Self {
        self.fallback = self.fallback.with_exec_profile(exec);
        self
    }

    /// The fallback engine's execution profile.
    pub fn exec_fallback(&self) -> ExecProfile {
        self.fallback.exec_profile()
    }

    /// What [`crate::execute_ctx_with`] takes as its unread fetch-tuning
    /// argument: a fetch step has nothing to tune.
    pub fn fetch_config(&self) -> FetchConfig {
        FetchConfig
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The registered access schema.
    pub fn access_schema(&self) -> &AccessSchema {
        &self.schema
    }

    /// The constraint indices.
    pub fn indexes(&self) -> &AccessIndexes {
        &self.indexes
    }

    /// Parse and bind a SQL query.
    pub fn bind(&self, sql: &str) -> Result<BoundQuery> {
        let stmt = parse_select(sql)?;
        Binder::new(&self.db).bind(&stmt)
    }

    /// Prepare `sql` — parse → bind → graph → coverage check → bounded plan
    /// — through the plan cache.  A repeated text reuses its
    /// prepared query; a new text of a known query shape binds the shape's
    /// plan to its own literal values; only a new shape is planned.  All of
    /// it stands for as long as the catalog and the access schema do; data
    /// writes re-prepare nothing.
    ///
    /// Public so a service can acquire the prepared query *once* per
    /// submission and thread the same `Arc` through admission
    /// ([`BeasSystem::deduced_bound`]-style checks via
    /// [`PreparedQuery::deduced_bound`]) and execution
    /// ([`BeasSystem::execute_prepared`]).
    pub fn prepare(&self, sql: &str) -> Result<Arc<PreparedQuery>> {
        Ok(self.prepare_outcome(sql)?.0)
    }

    /// [`BeasSystem::prepare`] plus whether the result was served from the
    /// plan cache, by text or by shape.
    pub fn prepare_traced(&self, sql: &str) -> Result<(Arc<PreparedQuery>, bool)> {
        let (prepared, outcome) = self.prepare_outcome(sql)?;
        Ok((prepared, outcome.is_hit()))
    }

    /// [`BeasSystem::prepare`] plus how the plan cache answered.  Still
    /// exactly one cache acquisition — the service uses this to stamp the
    /// outcome into a submission's trace without racing the shared cache
    /// counters against concurrent sessions.
    pub fn prepare_outcome(&self, sql: &str) -> Result<(Arc<PreparedQuery>, PlanCacheOutcome)> {
        let cache = &self.plan_cache;
        let epoch = self.schema_epoch();
        let mut stale = false;
        if let Some(entry) = cache.texts.get(sql, epoch, &mut stale) {
            cache.count(PlanCacheOutcome::TextHit, false);
            return Ok((entry, PlanCacheOutcome::TextHit));
        }
        let prepared = self.prepare_by_shape(sql, epoch, &mut stale);
        // a statement that fails to prepare counts as a miss
        let outcome = prepared
            .as_ref()
            .map_or(PlanCacheOutcome::Miss, |(_, outcome)| *outcome);
        cache.count(outcome, stale);
        let (entry, outcome) = prepared?;
        cache.texts.insert(sql.to_string(), Arc::clone(&entry));
        Ok((entry, outcome))
    }

    /// Prepare a text the cache has not seen: instantiate its shape's
    /// template, preparing the template first if the shape is new too.
    fn prepare_by_shape(
        &self,
        sql: &str,
        epoch: SchemaEpoch,
        stale: &mut bool,
    ) -> Result<(Arc<PreparedQuery>, PlanCacheOutcome)> {
        let shapes = &self.plan_cache.shapes;
        let (shape, values) = lift_literals(sql)?;
        let (template, outcome) = match shapes.get(&shape, epoch, stale) {
            Some(template) => (template, PlanCacheOutcome::ShapeHit),
            None => {
                let template = Arc::new(self.prepare_shape(&shape, &values)?);
                shapes.insert(shape, Arc::clone(&template));
                (template, PlanCacheOutcome::Miss)
            }
        };
        Ok((Arc::new(template.instantiate(values)), outcome))
    }

    /// The template of a query shape: the shape — itself SQL, with
    /// placeholders — prepared with its slots bound to `values`.
    fn prepare_shape(&self, shape: &str, values: &[Value]) -> Result<PreparedQuery> {
        let stmt = parse_select(shape)?;
        let query = Binder::new(&self.db).with_params(values).bind(&stmt)?;
        self.prepare_bound(query, values.to_vec())
    }

    /// Graph → coverage check → bounded plan for a bound query.
    fn prepare_bound(&self, query: BoundQuery, params: Vec<Value>) -> Result<PreparedQuery> {
        let graph = QueryGraph::build(&query)?;
        let coverage = Checker::new(&self.schema).check(&query, &graph);
        let plan = if coverage.covered {
            Some(generate_bounded_plan(&query, &graph, &coverage)?)
        } else {
            None
        };
        Ok(PreparedQuery {
            epoch: self.schema_epoch(),
            params,
            query,
            graph,
            coverage: Arc::new(coverage),
            plan,
        })
    }

    /// The epoch a query prepared by this system is stamped with.
    fn schema_epoch(&self) -> SchemaEpoch {
        SchemaEpoch {
            catalog: self.db.catalog_epoch(),
            access: self.access_epoch,
        }
    }

    /// Move to a fresh access-schema epoch: every plan prepared so far
    /// stops answering this system (and its future forks).
    fn bump_access_epoch(&mut self) {
        self.access_epoch = self
            .plan_cache
            .access_epochs
            .fetch_add(1, Ordering::Relaxed)
            + 1;
    }

    /// Hit/miss/invalidation counters of the plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Drop every cached plan, of texts and of shapes, for callers that want
    /// the next submission of each shape to pay for preparation again.  Never needed for
    /// correctness: schema changes move the epoch, data writes leave plans
    /// valid.
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    /// Check whether `sql` is boundedly evaluable under the registered access
    /// schema, without executing it.  When it is, the report carries the
    /// bounded plan and its deduced bound.  Served from the plan cache.
    pub fn check(&self, sql: &str) -> Result<CheckReport> {
        let prepared = self.prepare(sql)?;
        Ok(match &prepared.plan {
            Some(plan) => CheckReport {
                covered: true,
                deduced_bound: Some(plan.total_bound),
                plan: Some(plan.clone()),
                coverage: CoverageResult::clone(&prepared.coverage),
            },
            None => CheckReport {
                covered: false,
                deduced_bound: None,
                plan: None,
                coverage: CoverageResult::clone(&prepared.coverage),
            },
        })
    }

    /// The deduced bound on tuples accessed when `sql` is covered, `None`
    /// when it is not — the admission-control fast path: cache-served and,
    /// unlike [`BeasSystem::check`], clones no plan.
    pub fn deduced_bound(&self, sql: &str) -> Result<Option<u64>> {
        Ok(self.prepare(sql)?.plan.as_ref().map(|p| p.total_bound))
    }

    /// Estimated tuples a conventional (or partially bounded) evaluation of
    /// `sql` would access.  A planner *estimate*, not a guarantee —
    /// admission control uses it to route uncovered queries against a
    /// session budget; the runtime quota is what actually enforces the
    /// budget.  Served from the plan cache.
    pub fn estimate_conventional_tuples(&self, sql: &str) -> Result<u64> {
        let prepared = self.prepare(sql)?;
        self.estimate_conventional_tuples_prepared(&prepared)
    }

    /// Join-aware variant of [`BeasSystem::estimate_conventional_tuples`]
    /// over an already-prepared query.
    ///
    /// Two components, the larger wins:
    ///
    /// * **scan floor** — Σ base rows across the query's distinct tables: a
    ///   conventional plan scans each of them at least once, so no
    ///   evaluation can touch less;
    /// * **join cardinality** — per join-connected component of the query
    ///   graph, the product of the atoms' base cardinalities with each
    ///   equi-join edge dividing by the join column's distinct count
    ///   (`|R ⋈ S| ≈ |R|·|S| / max(d(R.a), d(S.b))`).  Atoms with *no*
    ///   join edge between them sit in different components whose
    ///   cardinalities multiply — so a cross product's intermediate blow-up
    ///   shows up in the estimate and admission control can reject it
    ///   before the runtime quota has to trip mid-scan.
    pub fn estimate_conventional_tuples_prepared(&self, prepared: &PreparedQuery) -> Result<u64> {
        let atoms = &prepared.graph.atoms;
        // Scan floor over distinct tables (self-joins scan the table once).
        let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        let mut scan_floor: u64 = 0;
        let mut rows: Vec<u64> = Vec::with_capacity(atoms.len());
        for atom in atoms.iter() {
            let count = self.db.table(&atom.table)?.row_count() as u64;
            rows.push(count);
            if seen.insert(atom.table.as_str()) {
                scan_floor += count;
            }
        }
        if atoms.is_empty() {
            return Ok(0);
        }
        // Union-find over atoms: each equality edge joins two components
        // and records a divisor (the join column's distinct count).
        let mut parent: Vec<usize> = (0..atoms.len()).collect();
        fn find(parent: &mut [usize], i: usize) -> usize {
            let mut root = i;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = i;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        // Product of all atom cardinalities, with every *merging* edge
        // (spanning-forest edges only — a redundant edge inside an
        // already-joined component would double-divide) applying the
        // |R|·|S|/d reduction.
        let mut estimate: u64 = 1;
        for r in &rows {
            estimate = estimate.saturating_mul((*r).max(1));
        }
        for ((la, lc), (ra, rc)) in prepared.graph.equalities.iter() {
            let (rl, rr) = (find(&mut parent, *la), find(&mut parent, *ra));
            if rl == rr {
                continue;
            }
            parent[rl] = rr;
            let d_left = self.distinct_count(&atoms[*la].table, lc);
            let d_right = self.distinct_count(&atoms[*ra].table, rc);
            let divisor = d_left.max(d_right).max(1);
            estimate = (estimate / divisor).max(1);
        }
        Ok(scan_floor.max(estimate))
    }

    /// Distinct count of `column` in `table` from the statistics cache,
    /// `1` when unknown (unknown must not shrink an estimate).
    fn distinct_count(&self, table: &str, column: &str) -> u64 {
        self.db
            .statistics(table)
            .ok()
            .and_then(|s| s.column(column).map(|c| c.distinct_count as u64))
            .filter(|&d| d > 0)
            .unwrap_or(1)
    }

    /// Whether `sql` can be answered by accessing at most `budget` tuples,
    /// decided before execution (demo scenario 1(a)).
    pub fn can_answer_within(&self, sql: &str, budget: u64) -> Result<bool> {
        let report = self.check(sql)?;
        Ok(match report.deduced_bound {
            Some(bound) => bound <= budget,
            None => false,
        })
    }

    /// The bounded plan for `sql` rendered with per-fetch bounds, or the
    /// coverage failure reasons when the query is not covered.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let report = self.check(sql)?;
        Ok(match report.plan {
            Some(plan) => plan.explain(),
            None => format!("{}", report.coverage),
        })
    }

    /// Execute `sql`: bounded when covered, partially bounded otherwise.
    /// The parse → bind → check → plan stage is served from the plan cache.
    ///
    /// # Example
    ///
    /// ```
    /// use beas_access::{AccessConstraint, AccessSchema};
    /// use beas_common::{ColumnDef, DataType, TableSchema, Value};
    /// use beas_core::BeasSystem;
    /// use beas_storage::Database;
    ///
    /// let mut db = Database::new();
    /// db.create_table(TableSchema::new(
    ///     "call",
    ///     vec![
    ///         ColumnDef::new("pnum", DataType::Str),
    ///         ColumnDef::new("recnum", DataType::Str),
    ///     ],
    /// )?)?;
    /// db.insert("call", vec![Value::str("p1"), Value::str("r1")])?;
    /// let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
    ///     "call", &["pnum"], &["recnum"], 100,
    /// )?]);
    /// let system = BeasSystem::with_schema(db, schema)?;
    ///
    /// let outcome = system.execute_sql("SELECT recnum FROM call WHERE pnum = 'p1'")?;
    /// assert!(outcome.bounded, "the constraint covers the query");
    /// assert_eq!(outcome.rows, vec![vec![Value::str("r1")]]);
    /// # Ok::<(), beas_common::BeasError>(())
    /// ```
    pub fn execute_sql(&self, sql: &str) -> Result<ExecutionOutcome> {
        let prepared = self.prepare(sql)?;
        self.execute_prepared(&prepared, None)
    }

    /// Execute `sql` under a session [`QuotaTracker`]: every base-data
    /// access — bounded fetches, partial residues, conventional scans — is
    /// charged against the tracker as it happens, and a trip terminates the
    /// query early with [`BeasError::QuotaExceeded`].  This is the runtime
    /// half of the budget contract; the up-front half is
    /// [`BeasSystem::can_answer_within`] / the service's admission control.
    pub fn execute_sql_with_quota(
        &self,
        sql: &str,
        quota: Option<&QuotaTracker>,
    ) -> Result<ExecutionOutcome> {
        let prepared = self.prepare(sql)?;
        self.execute_prepared(&prepared, quota)
    }

    /// Execute a prepared (possibly cached) query under an optional quota.
    /// With [`BeasSystem::prepare`] this is the two-call form of
    /// [`BeasSystem::execute_sql_with_quota`]: a service that already
    /// prepared the query for admission control executes the same `Arc`
    /// without a second plan-cache acquisition.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedQuery,
        quota: Option<&QuotaTracker>,
    ) -> Result<ExecutionOutcome> {
        let opts = ExecOptions {
            quota,
            ..ExecOptions::default()
        };
        self.execute_prepared_with(prepared, &opts)
    }

    /// [`BeasSystem::execute_prepared`] under explicit engine options: a
    /// bounded plan's finalization runs with them (`quota` also charges its
    /// fetch steps); everything else runs on the fallback engine as that is
    /// configured, under `opts.quota`.
    fn execute_prepared_with(
        &self,
        prepared: &PreparedQuery,
        opts: &ExecOptions<'_>,
    ) -> Result<ExecutionOutcome> {
        let query = &prepared.query;
        let graph = &prepared.graph;
        let coverage = &prepared.coverage;
        let quota = opts.quota;
        if let Some(plan) = &prepared.plan {
            let result = execute_bounded_with(plan, &self.indexes, opts)?;
            return Ok(ExecutionOutcome {
                rows: result.rows,
                schema: query.output_schema.clone(),
                bounded: true,
                mode: EvaluationMode::Bounded,
                tuples_accessed: result.tuples_accessed,
                deduced_bound: Some(plan.total_bound),
                constraints_used: plan.constraints_used,
                metrics: result.metrics,
            });
        }
        // Partially bounded (or conventional) evaluation: a covered relation
        // is reduced only when its predicted savings clear the default gate.
        let partial = execute_partially_bounded_with(
            &self.db,
            &self.fallback,
            query,
            graph,
            coverage,
            &self.indexes,
            PartialOptions {
                reduction_min_savings: DEFAULT_REDUCTION_MIN_SAVINGS,
            },
            quota,
        )?;
        let mode = if partial.reduced_relations.is_empty() {
            EvaluationMode::Conventional
        } else {
            EvaluationMode::PartiallyBounded
        };
        let mut metrics = partial.bounded_metrics.clone();
        for op in &partial.residual_metrics.operators {
            metrics.operators.push(op.clone());
        }
        metrics.elapsed = partial.bounded_metrics.elapsed + partial.residual_metrics.elapsed;
        let tuples_accessed = partial.total_tuples_accessed();
        Ok(ExecutionOutcome {
            rows: partial.rows,
            schema: query.output_schema.clone(),
            bounded: false,
            mode,
            tuples_accessed,
            deduced_bound: None,
            constraints_used: coverage.constraints_used().len(),
            metrics,
        })
    }

    /// Execute `sql` only if its deduced bound fits within `budget` tuples;
    /// otherwise return [`BeasError::BudgetExceeded`].
    pub fn execute_within_budget(&self, sql: &str, budget: u64) -> Result<ExecutionOutcome> {
        let report = self.check(sql)?;
        match report.deduced_bound {
            Some(bound) if bound <= budget => self.execute_sql(sql),
            Some(bound) => Err(BeasError::BudgetExceeded {
                required: bound,
                budget,
            }),
            None => Err(BeasError::not_bounded(
                "query is not boundedly evaluable; no bound can be guaranteed".to_string(),
            )),
        }
    }

    /// Choose the policy applied when maintenance writes would violate a
    /// cardinality bound (default: [`MaintenancePolicy::Strict`]).
    pub fn with_maintenance_policy(mut self, policy: MaintenancePolicy) -> Self {
        self.maintenance_policy = policy;
        self
    }

    /// Insert rows through the maintenance module: the base table and every
    /// affected constraint index are updated together.  The write bumps the
    /// database generation; cached plans stay valid (they depend on the
    /// schema, not on rows) unless the batch made
    /// [`MaintenancePolicy::AutoAdjust`] raise a bound.
    ///
    /// # Example
    ///
    /// ```
    /// use beas_access::{AccessConstraint, AccessSchema};
    /// use beas_common::{ColumnDef, DataType, TableSchema, Value};
    /// use beas_core::BeasSystem;
    /// use beas_storage::Database;
    ///
    /// let mut db = Database::new();
    /// db.create_table(TableSchema::new(
    ///     "call",
    ///     vec![
    ///         ColumnDef::new("pnum", DataType::Str),
    ///         ColumnDef::new("recnum", DataType::Str),
    ///     ],
    /// )?)?;
    /// let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
    ///     "call", &["pnum"], &["recnum"], 100,
    /// )?]);
    /// let mut system = BeasSystem::with_schema(db, schema)?;
    ///
    /// // The write maintains the constraint index, so the next query sees
    /// // the new row through a bounded fetch.
    /// system.insert_rows("call", vec![vec![Value::str("p2"), Value::str("r9")]])?;
    /// let outcome = system.execute_sql("SELECT recnum FROM call WHERE pnum = 'p2'")?;
    /// assert_eq!(outcome.rows, vec![vec![Value::str("r9")]]);
    /// # Ok::<(), beas_common::BeasError>(())
    /// ```
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<MaintenanceOutcome> {
        let maintainer = Maintainer::new(self.maintenance_policy);
        let outcome = maintainer.insert_rows(
            &mut self.db,
            &mut self.schema,
            &mut self.indexes,
            table,
            rows,
        )?;
        // AutoAdjust may have raised constraint bounds, which changes
        // deduced plan bounds.
        if !outcome.adjusted.is_empty() {
            self.bump_access_epoch();
        }
        Ok(outcome)
    }

    /// Delete the rows of `table` matching `predicate`, keeping every
    /// affected constraint index consistent.  Bumps the database
    /// generation; cached plans stay valid.
    ///
    /// # Example
    ///
    /// ```
    /// use beas_access::{AccessConstraint, AccessSchema};
    /// use beas_common::{ColumnDef, DataType, TableSchema, Value};
    /// use beas_core::BeasSystem;
    /// use beas_storage::Database;
    ///
    /// let mut db = Database::new();
    /// db.create_table(TableSchema::new(
    ///     "call",
    ///     vec![
    ///         ColumnDef::new("pnum", DataType::Str),
    ///         ColumnDef::new("recnum", DataType::Str),
    ///     ],
    /// )?)?;
    /// db.insert("call", vec![Value::str("p1"), Value::str("r1")])?;
    /// db.insert("call", vec![Value::str("p1"), Value::str("r2")])?;
    /// let schema = AccessSchema::from_constraints(vec![AccessConstraint::new(
    ///     "call", &["pnum"], &["recnum"], 100,
    /// )?]);
    /// let mut system = BeasSystem::with_schema(db, schema)?;
    ///
    /// let outcome = system.delete_rows("call", |row| row[1] == Value::str("r1"))?;
    /// assert_eq!(outcome.rows_affected, 1);
    /// let remaining = system.execute_sql("SELECT recnum FROM call WHERE pnum = 'p1'")?;
    /// assert_eq!(remaining.rows, vec![vec![Value::str("r2")]]);
    /// # Ok::<(), beas_common::BeasError>(())
    /// ```
    pub fn delete_rows(
        &mut self,
        table: &str,
        predicate: impl FnMut(&Row) -> bool,
    ) -> Result<MaintenanceOutcome> {
        let maintainer = Maintainer::new(self.maintenance_policy);
        maintainer.delete_rows(
            &mut self.db,
            &self.schema,
            &mut self.indexes,
            table,
            predicate,
        )
    }

    /// Tighten (or relax) every constraint bound to the observed
    /// cardinality times `headroom`.  Changes deduced plan bounds, so the
    /// access-schema epoch moves and every cached plan is invalidated.
    pub fn adjust_bounds(&mut self, headroom: f64) -> Result<Vec<(String, u64, u64)>> {
        let maintainer = Maintainer::new(self.maintenance_policy);
        let changes = maintainer.adjust_bounds(&self.db, &mut self.schema, headroom)?;
        if !changes.is_empty() {
            self.bump_access_epoch();
        }
        Ok(changes)
    }

    /// Mutable access to the underlying database for bulk loads and DDL.
    /// Any mutation bumps the write generation, and create/drop table also
    /// moves the catalog epoch (invalidating cached plans), but all of it
    /// bypasses index maintenance — call [`BeasSystem::rebuild_indexes`]
    /// afterwards, or use [`BeasSystem::insert_rows`] /
    /// [`BeasSystem::delete_rows`] for incrementally maintained writes.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Rebuild every constraint index from the current database contents.
    pub fn rebuild_indexes(&mut self) -> Result<()> {
        self.indexes = build_indexes(&self.db, &self.schema)?;
        Ok(())
    }

    /// Resource-bounded approximation: answer `sql` while fetching at most
    /// `budget` tuples, reporting a deterministic coverage lower bound.
    /// The parse → bind → check → plan stage is served from the plan cache
    /// (covered queries reuse the cached bounded plan outright).
    pub fn approximate(&self, sql: &str, budget: u64) -> Result<ApproximateExecution> {
        let prepared = self.prepare(sql)?;
        self.approximate_prepared(&prepared, budget)
    }

    /// [`BeasSystem::approximate`] over an already-prepared query — the
    /// approximation half of the single-acquisition service path.
    pub fn approximate_prepared(
        &self,
        prepared: &PreparedQuery,
        budget: u64,
    ) -> Result<ApproximateExecution> {
        let query = &prepared.query;
        let graph = &prepared.graph;
        let coverage = &prepared.coverage;
        if !coverage.covered && coverage.fetch_sequence.is_empty() {
            return Err(BeasError::not_bounded(
                "no access constraint applies to this query; approximation is not possible"
                    .to_string(),
            ));
        }
        // Covered queries reuse the cached full plan; otherwise approximate
        // over the covered portion.
        let generated;
        let plan = match &prepared.plan {
            Some(plan) => plan,
            None => {
                generated = crate::planner::generate_plan_for_steps(query, graph, coverage, None)?;
                &generated
            }
        };
        execute_with_budget(plan, query, &self.indexes, budget)
    }

    /// EXPLAIN ANALYZE through the whole system: execute `sql` through
    /// BEAS (bounded when covered, partially bounded / conventional
    /// otherwise) and once more on the fallback engine, returning the two
    /// breakdowns side by side.  A bounded run renders as its `Fetch(..)`
    /// lines followed by the per-operator tree of its finalization
    /// ([`beas_engine::analyze_tree`] over the plan's `Context` leaf); the
    /// baseline as the Fig. 3-style operator tree (including `Vectorized(..)`
    /// annotations when the columnar scan ran).
    ///
    /// Per-operator timing is forced on for the bounded finalization and
    /// the baseline per pipeline, not by flipping the global
    /// [`beas_obs::TraceLevel`], so concurrent sessions keep their
    /// configured level; fetch steps time themselves unconditionally.
    pub fn explain_analyze(&self, sql: &str) -> Result<QueryAnalysis> {
        let prepared = self.prepare(sql)?;
        let timed = ExecOptions {
            timing: true,
            ..ExecOptions::default()
        };
        let outcome = self.execute_prepared_with(&prepared, &timed)?;
        let beas_finalization = match &prepared.plan {
            Some(BoundedPlan {
                fetches,
                finalization: Ok(finalization),
                ..
            }) => {
                let mut tail = outcome.metrics.clone();
                tail.operators.drain(..fetches.len());
                Some(analyze_tree(finalization, &tail)?)
            }
            _ => None,
        };
        let baseline = self.fallback.explain_analyze(&self.db, sql)?;
        Ok(QueryAnalysis {
            sql: sql.to_string(),
            mode: outcome.mode,
            deduced_bound: outcome.deduced_bound,
            constraints_used: outcome.constraints_used,
            beas: SystemMeasurement::new(
                "BEAS",
                outcome.metrics.clone(),
                outcome.rows.len() as u64,
            ),
            beas_finalization,
            baseline: SystemMeasurement::new(
                BASELINE_LABEL,
                baseline.result.metrics.clone(),
                baseline.result.rows.len() as u64,
            ),
            baseline_tree: baseline.tree,
        })
    }

    /// Validate the whole system state: the database catalog and tables
    /// ([`Database::check_invariants`]), every constraint index against the
    /// table it indexes, and the shared plan cache.  O(total rows) —
    /// compiled only into debug builds and `--features validate` builds;
    /// the MVCC and concurrency test suites call it after every mutation
    /// step.
    ///
    /// Plan-cache checks (the cache is shared across forks, so entries may
    /// belong to another fork's schema epoch):
    /// 1. each map respects the capacity bound,
    /// 2. an entry caches a plan exactly when its coverage check passed,
    /// 3. a text entry at this system's epoch — one a lookup here would
    ///    serve, however it was made — equals, stage for stage, the text
    ///    prepared on its own with its literals in place: parse → bind →
    ///    graph → check → plan against this system's catalog and access
    ///    schema, however many data writes happened since it was cached,
    /// 4. a shape entry at this system's epoch equals its key prepared
    ///    again with the values it was first prepared with.
    #[cfg(any(debug_assertions, feature = "validate"))]
    pub fn check_invariants(&self) -> Result<()> {
        self.db.check_invariants()?;
        for (id, index) in self.indexes.iter() {
            let table = self.db.table(index.table()).map_err(|e| {
                BeasError::storage(format!(
                    "constraint index {id:?} covers a table the database lost: {e}"
                ))
            })?;
            index.check_against_table(table)?;
        }
        let fail = |msg: String| {
            Err(BeasError::storage(format!(
                "plan cache invariant violated: {msg}"
            )))
        };
        let texts = self.plan_cache.texts.snapshot();
        let shapes = self.plan_cache.shapes.snapshot();
        for (map, entries) in [("text", &texts), ("shape", &shapes)] {
            if entries.len() > PLAN_CACHE_CAP {
                return fail(format!(
                    "{} {map} entries exceed the {PLAN_CACHE_CAP}-entry cap",
                    entries.len()
                ));
            }
            for (key, entry) in entries {
                if entry.plan.is_some() != entry.coverage.covered {
                    return fail(format!(
                        "{map} entry {key:?} caches a plan but its coverage check disagrees"
                    ));
                }
            }
        }
        let current = |entry: &PreparedQuery| entry.epoch == self.schema_epoch();
        for (key, entry) in texts.iter().filter(|(_, e)| current(e)) {
            let fresh = self.prepare_bound(self.bind(key)?, entry.params.clone())?;
            if fresh != **entry {
                return fail(format!(
                    "text entry {key:?} at the current epoch (deduced bound {:?}) is not the \
                     text prepared from scratch (deduced bound {:?})",
                    entry.deduced_bound(),
                    fresh.deduced_bound()
                ));
            }
        }
        for (key, entry) in shapes.iter().filter(|(_, e)| current(e)) {
            if self.prepare_shape(key, &entry.params)? != **entry {
                return fail(format!(
                    "shape entry {key:?} at the current epoch is not its key prepared again"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_access::AccessConstraint;
    use beas_common::{ColumnDef, DataType, TableSchema, Value};

    fn system() -> BeasSystem {
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

    const COVERED: &str = "select distinct call.region from call, business \
        where business.type = 'bank' and business.region = 'r0' \
        and business.pnum = call.pnum and call.date = '2016-07-04'";

    const UNCOVERED: &str = "select call.region, sum(call.duration) as total from call, business \
        where business.type = 'bank' and business.region = 'r0' \
        and business.pnum = call.pnum and call.date = '2016-07-04' \
        group by call.region order by call.region";

    #[test]
    fn covered_query_runs_bounded() {
        let beas = system();
        let report = beas.check(COVERED).unwrap();
        assert!(report.covered);
        assert!(report.deduced_bound.unwrap() >= 2000);
        let outcome = beas.execute_sql(COVERED).unwrap();
        assert!(outcome.bounded);
        assert_eq!(outcome.mode, EvaluationMode::Bounded);
        assert_eq!(outcome.constraints_used, 2);
        assert!(outcome.tuples_accessed < 60);
        // Banks are the even-numbered pnums and even-numbered calls are all
        // in the east, so the answer is exactly {east}.
        assert_eq!(outcome.rows, vec![vec![Value::str("east")]]);
        assert!(beas.explain(COVERED).unwrap().contains("fetch("));
    }

    #[test]
    fn bounded_answers_match_baseline() {
        let beas = system();
        let outcome = beas.execute_sql(COVERED).unwrap();
        let baseline = Engine::default().run(beas.database(), COVERED).unwrap();
        let mut a = outcome.rows.clone();
        let mut b = baseline.rows.clone();
        a.sort_by(|x, y| x[0].total_cmp(&y[0]));
        b.sort_by(|x, y| x[0].total_cmp(&y[0]));
        assert_eq!(a, b);
    }

    #[test]
    fn uncovered_query_runs_partially_bounded_with_exact_answers() {
        // 120 businesses of other types make `business` the bulk of the base
        // rows, so reducing it to the banks clears the default cost gate.
        let mut beas = system();
        let others = (0..120)
            .map(|i| {
                vec![
                    Value::str(format!("x{i}")),
                    Value::str(if i % 2 == 0 { "gym" } else { "cafe" }),
                    Value::str("r9"),
                ]
            })
            .collect();
        beas.insert_rows("business", others).unwrap();
        let report = beas.check(UNCOVERED).unwrap();
        assert!(!report.covered);
        let outcome = beas.execute_sql(UNCOVERED).unwrap();
        assert!(!outcome.bounded);
        assert_eq!(outcome.mode, EvaluationMode::PartiallyBounded);
        let baseline = Engine::default().run(beas.database(), UNCOVERED).unwrap();
        assert_eq!(outcome.rows, baseline.rows);
        assert!(beas.explain(UNCOVERED).unwrap().contains("covered: no"));
    }

    #[test]
    fn default_cost_gate_falls_back_when_predicted_savings_are_small() {
        // Under the default threshold the same uncovered query is not worth
        // the partial machinery (the covered `business` is 10 of 60 base
        // rows): the system must route it to pure conventional evaluation —
        // with identical answers — and report the mode honestly.
        let beas = system();
        let outcome = beas.execute_sql(UNCOVERED).unwrap();
        assert_eq!(outcome.mode, EvaluationMode::Conventional);
        let baseline = Engine::default().run(beas.database(), UNCOVERED).unwrap();
        assert_eq!(outcome.rows, baseline.rows);
        // the gated run fetched nothing through constraint indices
        assert!(outcome.metrics.render().contains("PartialGate(skip"));
    }

    #[test]
    fn fork_shares_the_plan_cache_and_isolates_the_data() {
        let beas = system();
        let first = beas.execute_sql(COVERED).unwrap();
        assert_eq!(beas.plan_cache_stats().misses, 1);
        // the fork sees the cached plan (shared cache, same generation) ...
        let mut fork = beas.fork();
        let again = fork.execute_sql(COVERED).unwrap();
        assert_eq!(again.rows, first.rows);
        let stats = beas.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(fork.plan_cache_stats(), stats);
        // ... and writes to the fork never leak into the original
        fork.insert_rows(
            "call",
            vec![vec![
                Value::str("p0"),
                Value::str("rF"),
                Value::str("2016-07-04"),
                Value::str("forked"),
                Value::Int(1),
            ]],
        )
        .unwrap();
        assert!(fork.database().generation() > beas.database().generation());
        assert_eq!(beas.execute_sql(COVERED).unwrap().rows, first.rows);
        let forked_regions = fork.execute_sql(COVERED).unwrap().rows.len();
        assert_eq!(forked_regions, first.rows.len() + 1);
    }

    #[test]
    fn forks_at_different_data_generations_share_one_cached_plan() {
        // A reader pinned on a pre-write fork and the sessions on the newer
        // one run the same plan: one miss in total, and each executes it
        // against its own rows.
        let old = system();
        let mut fresh = old.fork();
        fresh
            .insert_rows(
                "call",
                vec![vec![
                    Value::str("p0"),
                    Value::str("rN"),
                    Value::str("2016-07-04"),
                    Value::str("north"),
                    Value::Int(1),
                ]],
            )
            .unwrap();
        let new_rows = fresh.execute_sql(COVERED).unwrap().rows;
        let old_rows = old.execute_sql(COVERED).unwrap().rows;
        assert_eq!(old_rows, vec![vec![Value::str("east")]]);
        assert_eq!(new_rows.len(), 2, "the newer fork sees its own insert");
        fresh.execute_sql(COVERED).unwrap();
        let stats = fresh.plan_cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.invalidations), (1, 2, 0));
    }

    #[test]
    fn a_fork_whose_bounds_moved_neither_serves_nor_is_served_the_other_plan() {
        let loose = system();
        let loose_bound = loose.check(COVERED).unwrap().deduced_bound.unwrap();
        let mut tight = loose.fork();
        assert!(!tight.adjust_bounds(1.0).unwrap().is_empty());
        // the shared cache holds the loose plan; the tightened fork must
        // re-plan, and the loose one must not pick up the tight plan after
        let tight_bound = tight.check(COVERED).unwrap().deduced_bound.unwrap();
        assert!(tight_bound < loose_bound);
        assert_eq!(
            loose.check(COVERED).unwrap().deduced_bound.unwrap(),
            loose_bound
        );
        assert_eq!(
            tight.check(COVERED).unwrap().deduced_bound.unwrap(),
            tight_bound
        );
        // two forks adjusting independently never land on one epoch
        let mut other = loose.fork();
        other.adjust_bounds(2.0).unwrap();
        assert_ne!(other.schema_epoch(), tight.schema_epoch());
    }

    #[test]
    fn quota_enforced_on_both_engines_through_the_system() {
        use beas_common::ResourceQuota;
        let beas = system();
        // bounded path: generous quota passes and accounts exactly
        let tracker = ResourceQuota::unlimited().with_max_tuples(1000).tracker();
        let outcome = beas
            .execute_sql_with_quota(COVERED, Some(&tracker))
            .unwrap();
        assert!(outcome.bounded);
        assert_eq!(tracker.tuples_used(), outcome.tuples_accessed);
        // bounded path: tight quota trips mid-flight
        let tight = ResourceQuota::unlimited().with_max_tuples(2).tracker();
        let err = beas
            .execute_sql_with_quota(COVERED, Some(&tight))
            .expect_err("2 tuples cannot cover the bounded fetches");
        assert_eq!(err.kind(), "quota_exceeded");
        // fallback (conventional) path: the baseline scan trips too
        let tight = ResourceQuota::unlimited().with_max_tuples(5).tracker();
        let err = beas
            .execute_sql_with_quota(UNCOVERED, Some(&tight))
            .expect_err("5 tuples cannot cover the 60-row scans");
        assert_eq!(err.kind(), "quota_exceeded");
        assert!(tight.is_tripped());
    }

    #[test]
    fn budget_checks() {
        let beas = system();
        assert!(beas.can_answer_within(COVERED, 10_000_000).unwrap());
        assert!(!beas.can_answer_within(COVERED, 10).unwrap());
        assert!(!beas.can_answer_within(UNCOVERED, 10_000_000).unwrap());
        let err = beas.execute_within_budget(COVERED, 10).unwrap_err();
        assert_eq!(err.kind(), "budget_exceeded");
        assert!(beas.execute_within_budget(COVERED, 10_000_000).is_ok());
        assert!(beas.execute_within_budget(UNCOVERED, 10_000_000).is_err());
    }

    #[test]
    fn approximation_respects_budget() {
        let beas = system();
        let approx = beas.approximate(COVERED, 12).unwrap();
        assert!(approx.tuples_accessed <= 12);
        assert!(approx.coverage > 0.0 && approx.coverage < 1.0);
        assert!(beas
            .approximate("select region from call where region = 'east'", 100)
            .is_err());
    }

    #[test]
    fn explain_analyze_renders_both_engines() {
        let beas = system();
        // Covered: bounded fetch pipeline vs the baseline operator tree.
        let covered = beas.explain_analyze(COVERED).unwrap();
        assert!(covered.bounded());
        assert_eq!(covered.mode, EvaluationMode::Bounded);
        assert!(covered.access_reduction() > 1.0);
        let text = covered.render();
        assert!(text.contains("evaluation: bounded"));
        // the speed-up over the engine (baseline time / BEAS time)
        assert!(covered.speedup().is_finite() && covered.speedup() > 0.0);
        assert!(text.contains(&format!("speed-up: {:.1}x", covered.speedup())));
        // every fetch step: keys looked up, tuples accessed beside its bound
        assert!(text.contains("Fetch(business(type,region->pnum)) keys 1/1, "));
        assert!(text.contains(" of ≤ 2000 tuples"), "{text}");
        assert!(text.contains("EXPLAIN ANALYZE"));
        assert!(text.contains("SeqScan(call"));
        // The baseline tree matches the baseline plan shape.
        assert_eq!(
            covered.baseline_tree.label,
            Engine::default()
                .explain(beas.database(), COVERED)
                .unwrap()
                .lines()
                .next()
                .unwrap()
        );
        // Uncovered: falls through to partial/conventional, still analyzed.
        let uncovered = beas.explain_analyze(UNCOVERED).unwrap();
        assert!(!uncovered.bounded());
        assert!(uncovered.render().contains("evaluation: conventional"));
        // Answers agree between the two timed runs.
        assert_eq!(uncovered.beas.rows, uncovered.baseline.rows);
    }

    #[test]
    fn discovery_constructor_works_end_to_end() {
        let base = system();
        let db = base.database().clone();
        let beas =
            BeasSystem::from_discovery(db, &[COVERED.to_string()], &DiscoveryConfig::default())
                .unwrap();
        assert!(!beas.access_schema().is_empty());
        let outcome = beas.execute_sql(COVERED).unwrap();
        let baseline = Engine::default().run(beas.database(), COVERED).unwrap();
        assert_eq!(outcome.rows.len(), baseline.rows.len());
    }

    #[test]
    fn errors_surface_for_bad_sql() {
        let beas = system();
        assert!(beas.execute_sql("not sql").is_err());
        assert!(beas.check("select x from nosuch").is_err());
    }

    #[test]
    fn exec_fallback_knob_keeps_answers_and_cached_plans() {
        // The execution profile is a physical property, so answers match
        // the default bit for bit and cached plans survive flips without
        // invalidation.
        let reference = system().execute_sql(UNCOVERED).unwrap();
        for exec in ExecProfile::all() {
            let beas = system().with_exec_fallback(exec);
            assert_eq!(beas.exec_fallback(), exec);
            let got = beas.execute_sql(UNCOVERED).unwrap();
            assert_eq!(
                format!("{:?}", got.rows),
                format!("{:?}", reference.rows),
                "{exec} answers must match the default"
            );
            let beas = beas.with_exec_fallback(ExecProfile::RowAtATime);
            let flipped = beas.execute_sql(UNCOVERED).unwrap();
            assert_eq!(flipped.rows, got.rows);
            let stats = beas.plan_cache_stats();
            assert_eq!(stats.hits, 1);
            assert_eq!(stats.invalidations, 0);
        }
    }

    #[test]
    fn plan_cache_hits_on_repeated_queries() {
        let beas = system();
        assert_eq!(beas.plan_cache_stats().lookups(), 0);
        let first = beas.execute_sql(COVERED).unwrap();
        let stats = beas.plan_cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);
        // a repeated text hits the cache by text
        let again = beas.execute_sql(COVERED).unwrap();
        assert_eq!(first.rows, again.rows);
        // a re-cased, re-spaced and commented text is a new text of the
        // same shape: a shape hit the first time, a text hit the second
        let reformatted = format!(
            "-- the same query\n{}",
            COVERED
                .to_uppercase()
                .replace("'BANK'", "'bank'")
                .replace("'R0'", "'r0'")
                .replace(' ', "  ")
        );
        let (shape_hit, outcome) = beas.prepare_outcome(&reformatted).unwrap();
        assert_eq!(outcome, PlanCacheOutcome::ShapeHit);
        let (text_hit, outcome) = beas.prepare_outcome(&reformatted).unwrap();
        assert_eq!(outcome, PlanCacheOutcome::TextHit);
        assert_eq!(
            beas.execute_prepared(&shape_hit, None).unwrap().rows,
            first.rows
        );
        assert_eq!(
            beas.execute_prepared(&text_hit, None).unwrap().rows,
            first.rows
        );
        let stats = beas.plan_cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.shape_hits, 1);
        assert!(stats.hit_rate() > 0.6);
        // check() shares the same cache
        assert!(beas.check(COVERED).unwrap().covered);
        assert_eq!(beas.plan_cache_stats().hits, 4);
    }

    #[test]
    fn maintenance_writes_invalidate_no_plan_and_answers_stay_fresh() {
        let mut beas = system();
        let before = beas.execute_sql(COVERED).unwrap();
        assert_eq!(before.rows, vec![vec![Value::str("east")]]);
        assert_eq!(beas.execute_sql(COVERED).unwrap().rows, before.rows);
        assert_eq!(beas.plan_cache_stats().hits, 1);

        // Insert a bank whose call lands in a brand-new region: the cached
        // plan is served again, and reads the maintained indices.
        beas.insert_rows(
            "business",
            vec![vec![
                Value::str("p77"),
                Value::str("bank"),
                Value::str("r0"),
            ]],
        )
        .unwrap();
        beas.insert_rows(
            "call",
            vec![vec![
                Value::str("p77"),
                Value::str("r999"),
                Value::str("2016-07-04"),
                Value::str("north"),
                Value::Int(1),
            ]],
        )
        .unwrap();
        let after = beas.execute_sql(COVERED).unwrap();
        let mut regions: Vec<String> = after
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        regions.sort();
        assert_eq!(regions, vec!["east".to_string(), "north".to_string()]);
        // and the fresh answer matches the baseline engine
        let baseline = Engine::default().run(beas.database(), COVERED).unwrap();
        let mut a: Vec<Row> = after.rows.clone();
        let mut b = baseline.rows;
        a.sort_by(|x, y| x[0].total_cmp(&y[0]));
        b.sort_by(|x, y| x[0].total_cmp(&y[0]));
        assert_eq!(a, b);

        // deletes are seen too
        beas.delete_rows("call", |r| r[1] == Value::str("r999"))
            .unwrap();
        let reverted = beas.execute_sql(COVERED).unwrap();
        assert_eq!(reverted.rows, vec![vec![Value::str("east")]]);
        // the uncovered shape re-plans its residue per run, from live rows
        let partial = beas.execute_sql(UNCOVERED).unwrap();
        beas.delete_rows("call", |r| r[1] == Value::str("r10"))
            .unwrap();
        let shrunk = beas.execute_sql(UNCOVERED).unwrap();
        assert_eq!(
            shrunk.rows,
            Engine::default()
                .run(beas.database(), UNCOVERED)
                .unwrap()
                .rows
        );
        assert_ne!(shrunk.rows, partial.rows);
        let stats = beas.plan_cache_stats();
        assert_eq!(
            (stats.misses, stats.hits, stats.invalidations),
            (2, 4, 0),
            "four data writes, no plan prepared twice: {stats}"
        );
        beas.check_invariants().unwrap();
    }

    #[test]
    fn bulk_loads_keep_cached_plans_and_ddl_invalidates_them_all() {
        let mut beas = system();
        let before = beas.execute_sql(COVERED).unwrap();
        beas.execute_sql(UNCOVERED).unwrap();
        // bulk-load outside maintenance, then rebuild indices
        beas.database_mut()
            .insert(
                "call",
                vec![
                    Value::str("p0"),
                    Value::str("rX"),
                    Value::str("2016-07-04"),
                    Value::str("west"),
                    Value::Int(5),
                ],
            )
            .unwrap();
        beas.rebuild_indexes().unwrap();
        let after = beas.execute_sql(COVERED).unwrap();
        assert_eq!(after.rows.len(), before.rows.len() + 1);
        let stats = beas.plan_cache_stats();
        assert_eq!((stats.hits, stats.invalidations), (1, 0));
        // DDL moves the catalog epoch: both cached plans go, each on its
        // next use
        beas.database_mut()
            .create_table(
                TableSchema::new("extra", vec![ColumnDef::new("x", DataType::Int)]).unwrap(),
            )
            .unwrap();
        assert_eq!(beas.execute_sql(COVERED).unwrap().rows, after.rows);
        beas.execute_sql(UNCOVERED).unwrap();
        let stats = beas.plan_cache_stats();
        assert_eq!((stats.misses, stats.invalidations), (4, 2));
        beas.database_mut().drop_table("extra").unwrap();
        beas.execute_sql(COVERED).unwrap();
        assert_eq!(beas.plan_cache_stats().invalidations, 3);
    }

    #[test]
    fn prepared_query_roundtrip_uses_one_cache_acquisition() {
        let beas = system();
        let prepared = beas.prepare(COVERED).unwrap();
        assert!(prepared.covered());
        assert!(prepared.deduced_bound().unwrap() >= 2000);
        let stats = beas.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        // admission estimate + execution off the same Arc: no new lookups
        let estimate = beas
            .estimate_conventional_tuples_prepared(&prepared)
            .unwrap();
        assert!(estimate >= 60);
        let outcome = beas.execute_prepared(&prepared, None).unwrap();
        assert!(outcome.bounded);
        let stats = beas.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1), "no extra acquisitions");
    }

    #[test]
    fn join_estimate_flags_cross_products_but_not_keyed_joins() {
        let beas = system();
        // call (50 rows) × business (10 rows) with no join predicate: the
        // estimate must reflect the 500-row cross product, not the 60-row
        // scan floor.
        let cross = "select call.region from call, business where business.type = 'bank'";
        let cross_est = beas.estimate_conventional_tuples(cross).unwrap();
        assert_eq!(cross_est, 500);
        // the same pair joined on pnum (10 distinct) stays near the scan
        // floor: 50 * 10 / 10 = 50 → floor 60 wins
        let keyed = "select call.region from call, business \
            where business.pnum = call.pnum and business.type = 'bank'";
        let keyed_est = beas.estimate_conventional_tuples(keyed).unwrap();
        assert_eq!(keyed_est, 60);
        // single-table queries remain the plain row count
        let single = beas
            .estimate_conventional_tuples("select region from call")
            .unwrap();
        assert_eq!(single, 50);
    }

    #[test]
    fn adjust_bounds_clears_cached_deduced_bounds() {
        let mut beas = system().with_maintenance_policy(MaintenancePolicy::AutoAdjust);
        let loose = beas.check(COVERED).unwrap().deduced_bound.unwrap();
        let changes = beas.adjust_bounds(1.0).unwrap();
        assert!(!changes.is_empty());
        let tight = beas.check(COVERED).unwrap().deduced_bound.unwrap();
        assert!(
            tight < loose,
            "tightened bounds must re-plan, not serve the cached bound ({tight} vs {loose})"
        );
        assert_eq!(beas.plan_cache_stats().invalidations, 1);
        // so does a bound AutoAdjust raises during an insert
        let grown: Vec<Row> = (0..60)
            .map(|i| {
                vec![
                    Value::str("p0"),
                    Value::str(format!("g{i}")),
                    Value::str("2016-07-04"),
                    Value::str("east"),
                    Value::Int(i),
                ]
            })
            .collect();
        let outcome = beas.insert_rows("call", grown).unwrap();
        assert_eq!(outcome.adjusted.len(), 1);
        let raised = beas.check(COVERED).unwrap().deduced_bound.unwrap();
        assert!(raised > tight);
        assert_eq!(beas.plan_cache_stats().invalidations, 2);
        beas.check_invariants().unwrap();
    }

    #[test]
    fn a_new_text_of_a_known_shape_binds_the_cached_plan_to_its_literals() {
        let beas = system();
        let banks = beas.execute_sql(COVERED).unwrap();
        let shops = beas
            .execute_sql(&COVERED.replace("'bank'", "'shop'"))
            .unwrap();
        let stats = beas.plan_cache_stats();
        assert_eq!(
            (stats.misses, stats.hits, stats.shape_hits),
            (1, 1, 1),
            "one shape planned, the second text instantiated from it: {stats}"
        );
        assert_eq!(stats.lookups(), 2);
        // the plan is shared, the answers are each statement's own
        assert_eq!(banks.rows, vec![vec![Value::str("east")]]);
        assert_eq!(shops.rows, vec![vec![Value::str("west")]]);
        assert_eq!(shops.deduced_bound, banks.deduced_bound);
        // literal case is part of the value, not of the shape
        let upper = beas
            .execute_sql(&COVERED.replace("'bank'", "'BANK'"))
            .unwrap();
        assert!(upper.rows.is_empty());
        assert_eq!(beas.plan_cache_stats().shape_hits, 2);
        // a repeated text is a text hit again
        beas.execute_sql(COVERED).unwrap();
        let stats = beas.plan_cache_stats();
        assert_eq!((stats.hits, stats.shape_hits, stats.misses), (3, 2, 1));
        beas.check_invariants().unwrap();
    }

    #[test]
    fn an_instantiated_template_is_the_text_prepared_from_scratch() {
        let beas = system();
        let texts = [
            COVERED.to_string(),
            COVERED.replace("'bank'", "'shop'").replace("'r0'", "'r1'"),
            UNCOVERED.to_string(),
            UNCOVERED.replace("'2016-07-04'", "'2016-07-05'"),
            "select recnum from call where pnum in ('p1', 'p2') and date = '2016-07-04' \
             and duration between 1 and 20 order by recnum limit 3"
                .to_string(),
            "select recnum from call where pnum in ('p3', 'p4') and date = '2016-07-05' \
             and duration between 5 and 9 order by recnum limit 3"
                .to_string(),
        ];
        for sql in &texts {
            let cached = beas.prepare(sql).unwrap();
            // parse → bind → graph → check → plan with the literals in place
            let (_, params) = lift_literals(sql).unwrap();
            let scratch = beas.prepare_bound(beas.bind(sql).unwrap(), params).unwrap();
            assert_eq!(*cached, scratch, "{sql}");
        }
        let stats = beas.plan_cache_stats();
        assert_eq!((stats.misses, stats.shape_hits), (3, 3), "{stats}");
    }

    #[test]
    fn in_list_length_is_part_of_the_shape_and_of_the_bound() {
        let beas = system();
        let two = "select recnum from call where pnum in ('p1', 'p2') and date = '2016-07-04'";
        let three =
            "select recnum from call where pnum in ('p1', 'p2', 'p3') and date = '2016-07-04'";
        assert_eq!(beas.deduced_bound(two).unwrap(), Some(2 * 500));
        assert_eq!(beas.deduced_bound(three).unwrap(), Some(3 * 500));
        assert_eq!(beas.plan_cache_stats().misses, 2, "two shapes");
        // so are literal types: `5`, `5.0` and `'5'` are three statements
        for literal in ["5", "5.0", "'5'"] {
            let sql = format!(
                "select recnum from call where pnum = 'p1' and date = '2016-07-04' \
                 and duration = {literal}"
            );
            beas.prepare(&sql).unwrap();
        }
        let stats = beas.plan_cache_stats();
        assert_eq!((stats.misses, stats.shape_hits), (5, 0), "{stats}");
    }

    #[test]
    fn clearing_the_cache_forgets_shapes_too_and_a_full_text_map_keeps_them() {
        let beas = system();
        beas.prepare(COVERED).unwrap();
        beas.clear_plan_cache();
        beas.prepare(COVERED).unwrap();
        assert_eq!(beas.plan_cache_stats().misses, 2, "no shape left to hit");
        // more texts of one shape than the text map holds: it is emptied on
        // the way, the shape stays, nothing is planned again
        for i in 0..(2 * PLAN_CACHE_CAP + 10) {
            beas.prepare(&COVERED.replace("'bank'", &format!("'kind{i}'")))
                .unwrap();
        }
        let stats = beas.plan_cache_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.shape_hits as usize, 2 * PLAN_CACHE_CAP + 10);
        // the first text went with a cleared map: one instantiation brings
        // it back
        beas.prepare(COVERED).unwrap();
        assert_eq!(beas.plan_cache_stats().misses, 2);
        beas.check_invariants().unwrap();
    }

    #[test]
    fn every_lookup_is_a_hit_or_a_miss_failed_ones_included() {
        let beas = system();
        assert!(beas.prepare("select 'open").is_err());
        assert!(beas.prepare("select x from nosuch where y = 1").is_err());
        assert!(beas.prepare("select x from nosuch where y = 2").is_err());
        beas.prepare(COVERED).unwrap();
        let stats = beas.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 4), "{stats}");
        // an uncastable key literal is a statement like any other to the
        // cache; it fails when its fetch step runs, each time it runs
        let bad_date = COVERED.replace("'2016-07-04'", "'not a date'");
        beas.prepare(&bad_date).unwrap();
        assert_eq!(beas.plan_cache_stats().shape_hits, 1);
        let first = beas.execute_sql(&bad_date).unwrap_err();
        let fresh = system().execute_sql(&bad_date).unwrap_err();
        assert_eq!(first.kind(), fresh.kind());
        assert_eq!(first.to_string(), fresh.to_string());
    }
}
