//! Pull-based pipelined executor for baseline logical plans.
//!
//! Every operator implements [`RowStream`]: a lazy `next()` over the shared
//! [`RowRef`] representation.  Rows are *pulled* through the operator tree
//! one at a time, so demand propagates downwards — when the consumer stops
//! pulling (a `LIMIT` is satisfied), every upstream operator stops
//! producing, including the base-table scan:
//!
//! * **Scan** yields one borrowed `RowRef` per pull; a scan under a
//!   satisfied `LIMIT` — even through filters and projections — reads only
//!   the rows actually demanded.  Its `tuples accessed` metric counts the
//!   rows it truly read, which is how the early-termination tests observe
//!   the pipeline stopping.
//! * **Filter / Project / Distinct** are fully streaming: one input row is
//!   examined per output pull, nothing is buffered (`Distinct` keeps only
//!   the `seen` hash of emitted rows).
//! * **Join** streams its *left* (probe) input and materializes only the
//!   right (build) side: a hash join (every join with equality keys) builds
//!   its table on first pull, a cross product (a join without keys) buffers
//!   the right rows.  Output order is left-major for both.  Keys go through
//!   [`beas_common::key`], so numeric/date coercion is the canonical one.
//! * **Sort** and **Aggregate** are pipeline breakers: they drain their
//!   input on first pull, then stream the result.  Sort under a limit hint
//!   collapses into a bounded top-k heap.
//!
//! Per-operator metrics are collected when the pipeline finishes: each
//! operator counts its output rows (and a scan its accessed tuples);
//! blocking operators additionally record the wall-clock time of their
//! blocking phase.  Fully streaming operators interleave with the rest of
//! the pipeline, so they report zero own-time — the total is on
//! [`ExecutionMetrics::elapsed`].
//!
//! # Columnar leaf fragments
//!
//! A scan under a stack of filters and projections may instead run through
//! the columnar kernels (`engine::vectorized`): the table is cut into
//! morsels of [`ParallelConfig::morsel_rows`] rows, each morsel is one
//! [`beas_common::ColumnBatch`], and a morsel the kernels cannot finish
//! re-runs on the row path.  Rows, order, errors and `tuples accessed` equal
//! the row pipeline's, which stays the reference
//! (`tests/vectorized_semantics.rs`).
//!
//! A query runs on the thread that calls [`execute`]; the service gets its
//! concurrency from sessions, not from splitting one query.
//!
//! The executor remains deliberately conventional in *what* it computes:
//! un-limited scans read whole tables and joins touch every input row — the
//! behaviour whose cost grows with `|D|` and which bounded evaluation
//! avoids.  Rows materialize back into owned `Vec<Value>` form only at the
//! query boundary.

use crate::metrics::ExecutionMetrics;
use crate::plan::{join_name, LogicalPlan};
use crate::profile::ExecProfile;
use crate::vectorized::{build_join_table, kernels_cover, probe_join_table, run_morsel_vectorized};
use beas_common::{join_key, BeasError, QuotaTracker, Result, Row, RowRef, RowStream, Value};
use beas_obs::{clock, OpTimer};
use beas_sql::{evaluate, evaluate_predicate, Accumulator, BoundAggregate, BoundExpr};
use beas_storage::{Database, Table, MORSEL_ROWS};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// The columnar scan's batch size.  The name is kept for the callers that
/// pass it through [`crate::Engine::with_parallelism`]; a query always runs
/// on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Rows per morsel: the batch [`ExecProfile::Vectorized`] builds and runs
    /// through its kernels.  Tests shrink it so small tables split into many
    /// morsels, forcing kernel / row-path splices.
    pub morsel_rows: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            morsel_rows: MORSEL_ROWS,
        }
    }
}

/// How [`execute`] runs a plan.  Every field is a physical property: rows,
/// order, error kind and position, `tuples_accessed` and quota charging are
/// identical under every combination (`tests/vectorized_semantics.rs`,
/// `tests/trace_semantics.rs`).
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions<'a> {
    /// The columnar scan's morsel size.
    pub parallel: ParallelConfig,
    /// Columnar kernels over per-morsel [`beas_common::ColumnBatch`]es, with
    /// per-morsel fallback to the row path for uncovered shapes or kernel
    /// errors, versus the row-at-a-time reference pipeline.
    pub exec: ExecProfile,
    /// Session quota: base-table access is charged one tuple per row read,
    /// and blocking operators re-check the deadline, so a query that exceeds
    /// its budget ends early with [`BeasError::QuotaExceeded`].  The row
    /// and the columnar scans charge at the same rows, so a trip carries the
    /// same message and leaves the same `tuples_used` under every
    /// [`ExecProfile`].
    pub quota: Option<&'a QuotaTracker>,
    /// Per-operator timing: when on, every streaming operator accumulates
    /// its *inclusive* elapsed time (time spent pulling from inputs
    /// included, PostgreSQL `EXPLAIN ANALYZE` convention) into its
    /// [`ExecutionMetrics`] line; when off, streaming operators report
    /// `Duration::ZERO` and only blocking phases (join build, sort,
    /// aggregate fold) carry elapsed times.
    pub timing: bool,
}

impl Default for ExecOptions<'_> {
    /// The default execution profile and morsel size, no quota, and
    /// per-operator timing as the global [`beas_obs::TraceLevel`] says —
    /// read here, once per query, never per row.
    fn default() -> Self {
        ExecOptions {
            parallel: ParallelConfig::default(),
            exec: ExecProfile::default(),
            quota: None,
            timing: beas_obs::trace_level().timing(),
        }
    }
}

/// What the leaves of a plan read.
#[derive(Debug)]
pub enum Input<'a> {
    /// `Scan` leaves read the tables of this database.
    Tables(&'a Database),
    /// The plan's `Context` leaf replays these rows: the context relation a
    /// bounded plan's fetch steps produced.
    Context(Vec<RowRef<'a>>),
}

/// Execute a logical plan over `input`, appending one line per operator to
/// `metrics`.
pub fn execute<'a>(
    plan: &'a LogicalPlan,
    input: Input<'a>,
    metrics: &mut ExecutionMetrics,
    opts: &ExecOptions<'a>,
) -> Result<Vec<Row>> {
    let start = clock::now();
    let (db, mut context) = match input {
        Input::Tables(db) => (Some(db), Vec::new()),
        Input::Context(rows) => (None, rows),
    };
    let ctx = BuildCtx {
        db,
        morsel_rows: opts.parallel.morsel_rows,
        lazy: false,
        quota: opts.quota,
        exec: opts.exec,
        timing: opts.timing,
    };
    let mut root = build_operator(plan, None, ctx, &mut context)?;
    // Single materialization point: pipelined rows become owned rows only
    // when they leave the executor (`into_row` moves sole-owner projected
    // rows instead of cloning their values).
    let mut out: Vec<Row> = Vec::new();
    while let Some(row) = root.next()? {
        out.push(row.into_row());
    }
    root.record(metrics);
    metrics.elapsed = start.elapsed();
    Ok(out)
}

/// An executable operator: a row stream that can also report its metrics
/// once the pipeline has finished (post-order, inputs before self, matching
/// the execution order the batch executor used to record).
trait Operator<'a>: RowStream<'a> {
    fn record(&mut self, metrics: &mut ExecutionMetrics);
}

type BoxedOperator<'a> = Box<dyn Operator<'a> + 'a>;

/// Implement [`RowStream::next`] for an operator as a timed wrapper over
/// its inherent `advance()` body: inclusive elapsed time accumulates into
/// `self.timer` only when the pipeline was built with per-operator timing
/// on ([`BuildCtx::timing`]); the off path is one predictable branch per
/// pull and no clock read, which the `trace_off_*` bench pair pins.
macro_rules! timed_next {
    ($op:ident) => {
        impl<'a> RowStream<'a> for $op<'a> {
            fn next(&mut self) -> Result<Option<RowRef<'a>>> {
                let t = self.timer.begin();
                let out = self.advance();
                self.timer.end(t);
                out
            }
        }
    };
}

/// Context threaded through operator construction.
#[derive(Debug, Clone, Copy)]
struct BuildCtx<'a> {
    /// The database `Scan` leaves read; `None` when the plan runs over a
    /// fetched context ([`Input::Context`]).
    db: Option<&'a Database>,
    /// Rows per columnar-scan morsel.
    morsel_rows: usize,
    /// Whether the consumer may stop pulling early (a `LIMIT` upstream with
    /// only streaming operators in between).  A columnar fragment reads a
    /// whole morsel ahead of demand, so laziness keeps the row-at-a-time
    /// scan and its lazy prefix.  Pipeline breakers (Sort, Aggregate, a
    /// join's build side) drain their input completely and reset the flag.
    lazy: bool,
    /// Session quota charged by every base-data access path.
    quota: Option<&'a QuotaTracker>,
    /// Row-at-a-time vs columnar kernel execution for leaf fragments.
    exec: ExecProfile,
    /// Per-operator inclusive timing (TraceLevel::Timing), captured once at
    /// pipeline build so a mid-query knob flip can't tear the record.
    timing: bool,
}

impl<'a> BuildCtx<'a> {
    /// The context for an input that is always drained to exhaustion.
    fn drained(self) -> Self {
        BuildCtx {
            lazy: false,
            ..self
        }
    }

    /// The base table a `Scan` leaf names.
    fn table(&self, name: &str) -> Result<&'a Table> {
        match self.db {
            Some(db) => db.table(name),
            None => Err(BeasError::execution(format!(
                "plan scans table {name:?} but was given a fetched context, not a database"
            ))),
        }
    }
}

/// Build the operator tree for a plan node.  `limit` is the pushed-down
/// row-count hint: `Some(k)` means the consumer will pull at most `k` rows,
/// which lets blocking operators choose bounded algorithms (top-k sort).
/// Streaming operators need no hint — laziness is the mechanism: they simply
/// stop being pulled.
///
/// Stopping early gives LIMIT the *lazy prefix* semantics of production
/// engines: rows that can never appear in the answer are not processed, so a
/// runtime error (e.g. a type error) lurking in such a row is not raised.
/// A bounded plan's fetch steps filter their whole (already bounded) context
/// before its finalization — these same operators over a `Context` leaf —
/// runs, so under a LIMIT the two engines agree on answers but may differ
/// on whether a doomed row's error surfaces — the error-parity guarantee is
/// pinned for the un-limited case
/// (`type_error_predicates_propagate_like_the_baseline`).
fn build_operator<'a>(
    plan: &'a LogicalPlan,
    limit: Option<usize>,
    ctx: BuildCtx<'a>,
    context: &mut Vec<RowRef<'a>>,
) -> Result<BoxedOperator<'a>> {
    // A maximal Scan → Filter*/Project* chain may run its morsels through
    // the columnar kernels as a whole.
    if let Some(op) = try_vectorized(plan, ctx, false)? {
        return Ok(op);
    }
    Ok(match plan {
        LogicalPlan::Scan { table, alias, .. } => {
            let t = ctx.table(table)?;
            let label = if table == alias {
                format!("SeqScan({table})")
            } else {
                format!("SeqScan({table} AS {alias})")
            };
            Box::new(ScanOp {
                iter: Box::new(t.rows_iter()),
                label,
                produced: 0,
                quota: ctx.quota,
                timer: OpTimer::new(ctx.timing),
            })
        }
        LogicalPlan::Context { .. } => Box::new(ContextOp {
            rows: std::mem::take(context).into_iter(),
            rows_out: 0,
            timer: OpTimer::new(ctx.timing),
        }),
        LogicalPlan::Filter { input, predicate } => {
            // The hint cannot pass through (the filter drops rows), but
            // demand still does: the filter pulls from its input only while
            // the consumer keeps pulling from it.
            let input = build_operator(input, None, ctx, context)?;
            Box::new(FilterOp {
                input,
                predicate,
                rows_out: 0,
                timer: OpTimer::new(ctx.timing),
            })
        }
        LogicalPlan::Join {
            left, right, keys, ..
        } => {
            // The probe (left) side streams on demand, so it inherits the
            // consumer's laziness; the build (right) side is always drained
            // in full, so it may run columnar even under a downstream LIMIT.
            let left = build_operator(left, None, ctx, context)?;
            let right = build_operator(right, None, ctx.drained(), context)?;
            let label = format!("{}(keys={})", join_name(keys), keys.len());
            if keys.is_empty() {
                Box::new(
                    CrossProductOp::new(left, right, label).with_timer(OpTimer::new(ctx.timing)),
                )
            } else {
                Box::new(
                    HashJoinOp::new(
                        left,
                        right,
                        keys.iter().map(|(l, _)| *l).collect(),
                        keys.iter().map(|(_, r)| *r).collect(),
                        label,
                        ctx.exec.vectorized(),
                    )
                    .with_timer(OpTimer::new(ctx.timing)),
                )
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => {
            // Aggregation must consume all input; only the *output* groups
            // are streamed (first-seen group order), so a downstream LIMIT
            // cuts groups lazily.
            let input = build_operator(input, None, ctx.drained(), context)?;
            Box::new(AggregateOp {
                input,
                started: false,
                group_by,
                aggregates,
                quota: ctx.quota,
                out: Vec::new().into_iter(),
                rows_out: 0,
                elapsed: Duration::ZERO,
                timer: OpTimer::new(ctx.timing),
            })
        }
        LogicalPlan::Project { input, exprs, .. } => {
            // Projection is 1:1, so the limit hint passes straight through.
            let input = build_operator(input, limit, ctx, context)?;
            Box::new(ProjectOp {
                input,
                exprs,
                rows_out: 0,
                timer: OpTimer::new(ctx.timing),
            })
        }
        LogicalPlan::Distinct { input } => {
            // The columnar path pre-deduplicates each morsel with batched
            // hashes; this operator removes the remaining cross-morsel
            // duplicates in row order, so the surviving set and order equal
            // the row pipeline's.
            let input = match try_vectorized(input, ctx, true)? {
                Some(op) => op,
                None => build_operator(input, None, ctx, context)?,
            };
            Box::new(DistinctOp {
                input,
                seen: HashSet::new(),
                rows_out: 0,
                timer: OpTimer::new(ctx.timing),
            })
        }
        LogicalPlan::Sort { input, keys } => {
            // Sort drains its input whatever happens downstream.
            let input = build_operator(input, None, ctx.drained(), context)?;
            Box::new(SortOp {
                input,
                started: false,
                keys,
                limit,
                quota: ctx.quota,
                out: Vec::new().into_iter(),
                rows_out: 0,
                elapsed: Duration::ZERO,
                timer: OpTimer::new(ctx.timing),
            })
        }
        LogicalPlan::Limit { input, limit: k } => {
            let k = *k as usize;
            let input = build_operator(input, Some(k), BuildCtx { lazy: true, ..ctx }, context)?;
            Box::new(LimitOp {
                input,
                remaining: k,
                label: format!("Limit({k})"),
                rows_out: 0,
                timer: OpTimer::new(ctx.timing),
            })
        }
    })
}

// ---------------------------------------------------------------------------
// Leaf fragments
// ---------------------------------------------------------------------------

/// One streaming operator of a leaf pipeline fragment.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FragOp<'a> {
    /// Filter by a predicate (baseline error semantics: errors propagate).
    Filter(&'a BoundExpr),
    /// Project through output expressions.
    Project(&'a [(BoundExpr, String)]),
}

/// A leaf pipeline the columnar kernels may run: a base-table scan under any
/// stack of fully streaming per-row operators, innermost first.
#[derive(Debug, Clone)]
pub(crate) struct Fragment<'a> {
    pub(crate) table: &'a str,
    pub(crate) scan_label: String,
    pub(crate) ops: Vec<FragOp<'a>>,
}

/// The maximal Scan → Filter*/Project* chain rooted at `plan`, if the whole
/// subtree is such a chain.
fn leaf_fragment(plan: &LogicalPlan) -> Option<Fragment<'_>> {
    match plan {
        LogicalPlan::Scan { table, alias, .. } => Some(Fragment {
            table,
            scan_label: if table == alias {
                format!("SeqScan({table})")
            } else {
                format!("SeqScan({table} AS {alias})")
            },
            ops: Vec::new(),
        }),
        LogicalPlan::Filter { input, predicate } => {
            let mut frag = leaf_fragment(input)?;
            frag.ops.push(FragOp::Filter(predicate));
            Some(frag)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let mut frag = leaf_fragment(input)?;
            frag.ops.push(FragOp::Project(exprs));
            Some(frag)
        }
        _ => None,
    }
}

/// The output of one morsel run through a fragment.
pub(crate) struct MorselRun<'a> {
    pub(crate) rows: Vec<RowRef<'a>>,
    /// First evaluation error, terminating the morsel at its position.
    pub(crate) error: Option<BeasError>,
    /// Base rows read: the morsel length, unless an error or a quota trip
    /// ended the morsel early.
    pub(crate) scanned: u64,
    /// Rows produced by each fragment operator, aligned with
    /// [`Fragment::ops`].
    pub(crate) op_rows_out: Vec<u64>,
}

/// Run `frag` over one morsel (a slice of one storage segment).  With
/// `dedupe`, rows that duplicate an earlier row of the same morsel are
/// dropped.  With `quota`, one tuple is charged *before* each row is
/// evaluated — the row scan's interleaving, so the trip point and the
/// ordering of quota trips versus evaluation errors match the pull pipeline
/// exactly.
pub(crate) fn run_fragment_morsel<'a>(
    frag: &Fragment<'a>,
    morsel: &'a [Row],
    dedupe: bool,
    quota: Option<&QuotaTracker>,
) -> MorselRun<'a> {
    let mut run = MorselRun {
        rows: Vec::new(),
        error: None,
        scanned: 0,
        op_rows_out: vec![0; frag.ops.len()],
    };
    let mut seen: Option<HashSet<RowRef<'a>>> = dedupe.then(HashSet::new);
    'rows: for base_row in morsel {
        if let Some(q) = quota {
            if let Err(e) = q.charge_tuples(1) {
                run.error = Some(e);
                break 'rows;
            }
        }
        run.scanned += 1;
        let mut row = RowRef::borrowed(base_row);
        for (i, op) in frag.ops.iter().enumerate() {
            match op {
                FragOp::Filter(pred) => match evaluate_predicate(pred, &row) {
                    Ok(true) => run.op_rows_out[i] += 1,
                    Ok(false) => continue 'rows,
                    Err(e) => {
                        run.error = Some(e);
                        break 'rows;
                    }
                },
                FragOp::Project(exprs) => {
                    let mut projected = Vec::with_capacity(exprs.len());
                    for (e, _) in exprs.iter() {
                        match evaluate(e, &row) {
                            Ok(v) => projected.push(v),
                            Err(e) => {
                                run.error = Some(e);
                                break 'rows;
                            }
                        }
                    }
                    run.op_rows_out[i] += 1;
                    row = RowRef::owned(projected);
                }
            }
        }
        if let Some(seen) = &mut seen {
            if !seen.insert(row.clone()) {
                continue;
            }
        }
        run.rows.push(row);
    }
    run
}

// ---------------------------------------------------------------------------
// Columnar scan
// ---------------------------------------------------------------------------

/// Build a [`VectorizedScanOp`] over `plan` if the exec profile enables
/// kernels, the consumer is not lazy (a LIMIT's lazy prefix must keep
/// per-row pull granularity), `plan` is a leaf fragment with at least one
/// operator (or a Distinct consumer wants the per-morsel pre-dedupe), and
/// the kernels cover every fragment expression.  There is no minimum-size
/// gate: batching pays for itself from the first morsel.
fn try_vectorized<'a>(
    plan: &'a LogicalPlan,
    ctx: BuildCtx<'a>,
    dedupe: bool,
) -> Result<Option<BoxedOperator<'a>>> {
    if !ctx.exec.vectorized() || ctx.lazy {
        return Ok(None);
    }
    let Some(frag) = leaf_fragment(plan) else {
        return Ok(None);
    };
    if frag.ops.is_empty() && !dedupe {
        // A bare scan has no kernel work; the plain scan avoids building
        // batches for nothing.
        return Ok(None);
    }
    let table = ctx.table(frag.table)?;
    if !kernels_cover(&frag, table.schema().arity()) {
        return Ok(None);
    }
    let morsels = table.morsel_slices(ctx.morsel_rows);
    let ops = frag.ops.len();
    Ok(Some(Box::new(VectorizedScanOp {
        frag,
        morsels,
        exec: ctx.exec,
        dedupe,
        quota: ctx.quota,
        next_morsel: 0,
        out: Vec::new().into_iter(),
        pending_error: None,
        scanned: 0,
        op_rows_out: vec![0; ops],
        rows_out: 0,
        batches: 0,
        fallbacks: 0,
        timer: OpTimer::new(ctx.timing),
    })))
}

/// Columnar execution of a leaf fragment: morsels are evaluated one
/// batch at a time through the kernels, with per-morsel fallback to the row
/// path (kernel error, or the [`ExecProfile::Alternating`] profile's forced
/// row morsels).
///
/// Quota discipline reproduces the row scan's accounting exactly.  A
/// kernel morsel is evaluated first and then charged one tuple per base row
/// — the same cumulative counts and the same trip point as the row scan's
/// per-pull charge — and a trip discards the morsel's output before
/// anything is emitted (partial output never escapes
/// [`execute`] on error, so the discard is unobservable).  A
/// fallback morsel interleaves charge-then-evaluate per row like the row
/// pipeline, so the ordering of quota trips versus evaluation errors is
/// preserved even mid-morsel.
struct VectorizedScanOp<'a> {
    frag: Fragment<'a>,
    /// The table's morsel slices, walked in order.
    morsels: Vec<&'a [Row]>,
    exec: ExecProfile,
    /// Per-morsel pre-dedupe for a Distinct consumer (batched canonical
    /// hashes; the DistinctOp above removes cross-morsel duplicates).
    dedupe: bool,
    quota: Option<&'a QuotaTracker>,
    next_morsel: usize,
    out: std::vec::IntoIter<RowRef<'a>>,
    /// Error terminating the stream, after the rows that precede it.
    pending_error: Option<BeasError>,
    scanned: u64,
    op_rows_out: Vec<u64>,
    rows_out: u64,
    /// Morsels that completed on the kernel path.
    batches: u64,
    /// Morsels that started on the kernel path but re-ran on the row path.
    fallbacks: u64,
    timer: OpTimer,
}

impl<'a> VectorizedScanOp<'a> {
    /// Run morsel `index` on whichever path the profile and the kernels
    /// allow, with the quota discipline described on the type.
    fn run_morsel(&mut self, index: usize, morsel: &'a [Row]) -> MorselRun<'a> {
        if !self.exec.forces_row_path(index) {
            if let Some(run) = run_morsel_vectorized(&self.frag, morsel, self.dedupe) {
                self.batches += 1;
                if let Some(q) = self.quota {
                    for _ in 0..morsel.len() {
                        if let Err(e) = q.charge_tuples(1) {
                            return MorselRun {
                                rows: Vec::new(),
                                error: Some(e),
                                scanned: run.scanned,
                                op_rows_out: run.op_rows_out,
                            };
                        }
                    }
                }
                return run;
            }
            self.fallbacks += 1;
        }
        run_fragment_morsel(&self.frag, morsel, self.dedupe, self.quota)
    }
}

impl<'a> VectorizedScanOp<'a> {
    fn advance(&mut self) -> Result<Option<RowRef<'a>>> {
        loop {
            if let Some(row) = self.out.next() {
                self.rows_out += 1;
                return Ok(Some(row));
            }
            if let Some(e) = self.pending_error.take() {
                return Err(e);
            }
            if self.next_morsel >= self.morsels.len() {
                return Ok(None);
            }
            let index = self.next_morsel;
            self.next_morsel += 1;
            let run = self.run_morsel(index, self.morsels[index]);
            self.scanned += run.scanned;
            for (slot, n) in self.op_rows_out.iter_mut().zip(&run.op_rows_out) {
                *slot += n;
            }
            // A morsel's surviving rows drain before its error surfaces —
            // exactly the row pipeline's row-then-error order.
            self.out = run.rows.into_iter();
            self.pending_error = run.error;
        }
    }
}

timed_next!(VectorizedScanOp);

impl<'a> Operator<'a> for VectorizedScanOp<'a> {
    fn record(&mut self, metrics: &mut ExecutionMetrics) {
        // The row pipeline's labels and totals (`tuples accessed` == rows
        // scanned), then a marker line for the kernel path itself.
        metrics.record(
            self.frag.scan_label.clone(),
            self.scanned,
            self.scanned,
            Duration::ZERO,
        );
        for (op, n) in self.frag.ops.iter().zip(&self.op_rows_out) {
            match op {
                FragOp::Filter(pred) => {
                    metrics.record(format!("Filter({pred})"), *n, 0, Duration::ZERO)
                }
                FragOp::Project(_) => metrics.record("Project", *n, 0, Duration::ZERO),
            }
        }
        metrics.record(
            format!(
                "Vectorized(batches={}, fallbacks={})",
                self.batches, self.fallbacks
            ),
            self.rows_out,
            0,
            self.timer.elapsed(),
        );
    }
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

/// Base-table scan: one borrowed row per pull, no copy of the table.  The
/// iterator walks the table's storage segments in physical-id order.
struct ScanOp<'a> {
    iter: Box<dyn Iterator<Item = &'a Row> + 'a>,
    label: String,
    produced: u64,
    /// Session quota: every pulled row is charged, so the scan — the only
    /// row operator touching base data — terminates the pipeline the moment
    /// the budget trips.
    quota: Option<&'a QuotaTracker>,
    timer: OpTimer,
}

impl<'a> ScanOp<'a> {
    fn advance(&mut self) -> Result<Option<RowRef<'a>>> {
        match self.iter.next() {
            Some(r) => {
                if let Some(q) = self.quota {
                    q.charge_tuples(1)?;
                }
                self.produced += 1;
                Ok(Some(RowRef::borrowed(r)))
            }
            None => Ok(None),
        }
    }
}

timed_next!(ScanOp);

impl<'a> Operator<'a> for ScanOp<'a> {
    fn record(&mut self, metrics: &mut ExecutionMetrics) {
        // rows out == tuples accessed: exactly the rows actually pulled,
        // which under a satisfied LIMIT is fewer than the table holds.
        metrics.record(
            self.label.clone(),
            self.produced,
            self.produced,
            self.timer.elapsed(),
        );
    }
}

/// The fetched context of a bounded plan, replayed in order.  It charges no
/// tuple: the fetch steps that produced the rows already did.
struct ContextOp<'a> {
    rows: std::vec::IntoIter<RowRef<'a>>,
    rows_out: u64,
    timer: OpTimer,
}

impl<'a> ContextOp<'a> {
    fn advance(&mut self) -> Result<Option<RowRef<'a>>> {
        let row = self.rows.next();
        self.rows_out += u64::from(row.is_some());
        Ok(row)
    }
}

timed_next!(ContextOp);

impl<'a> Operator<'a> for ContextOp<'a> {
    fn record(&mut self, metrics: &mut ExecutionMetrics) {
        metrics.record("Context", self.rows_out, 0, self.timer.elapsed());
    }
}

/// Streaming filter with baseline error semantics (evaluation errors
/// propagate, they never silently drop rows).
struct FilterOp<'a> {
    input: BoxedOperator<'a>,
    predicate: &'a BoundExpr,
    rows_out: u64,
    timer: OpTimer,
}

impl<'a> FilterOp<'a> {
    fn advance(&mut self) -> Result<Option<RowRef<'a>>> {
        while let Some(row) = self.input.next()? {
            if evaluate_predicate(self.predicate, &row)? {
                self.rows_out += 1;
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

timed_next!(FilterOp);

impl<'a> Operator<'a> for FilterOp<'a> {
    fn record(&mut self, metrics: &mut ExecutionMetrics) {
        self.input.record(metrics);
        metrics.record(
            format!("Filter({})", self.predicate),
            self.rows_out,
            0,
            self.timer.elapsed(),
        );
    }
}

/// Streaming projection.
struct ProjectOp<'a> {
    input: BoxedOperator<'a>,
    exprs: &'a [(BoundExpr, String)],
    rows_out: u64,
    timer: OpTimer,
}

impl<'a> ProjectOp<'a> {
    fn advance(&mut self) -> Result<Option<RowRef<'a>>> {
        match self.input.next()? {
            Some(row) => {
                let mut projected = Vec::with_capacity(self.exprs.len());
                for (e, _) in self.exprs {
                    projected.push(evaluate(e, &row)?);
                }
                self.rows_out += 1;
                Ok(Some(RowRef::owned(projected)))
            }
            None => Ok(None),
        }
    }
}

timed_next!(ProjectOp);

impl<'a> Operator<'a> for ProjectOp<'a> {
    fn record(&mut self, metrics: &mut ExecutionMetrics) {
        self.input.record(metrics);
        metrics.record("Project", self.rows_out, 0, self.timer.elapsed());
    }
}

/// Streaming duplicate elimination: emits first occurrences as they arrive.
struct DistinctOp<'a> {
    input: BoxedOperator<'a>,
    seen: HashSet<RowRef<'a>>,
    rows_out: u64,
    timer: OpTimer,
}

impl<'a> DistinctOp<'a> {
    fn advance(&mut self) -> Result<Option<RowRef<'a>>> {
        while let Some(row) = self.input.next()? {
            // Cloning a RowRef copies its segment list, not its values.
            if self.seen.insert(row.clone()) {
                self.rows_out += 1;
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

timed_next!(DistinctOp);

impl<'a> Operator<'a> for DistinctOp<'a> {
    fn record(&mut self, metrics: &mut ExecutionMetrics) {
        self.input.record(metrics);
        metrics.record("Distinct", self.rows_out, 0, self.timer.elapsed());
    }
}

/// Row-count limit: stops pulling from the input once satisfied — this is
/// the operator that turns demand into early termination upstream.
struct LimitOp<'a> {
    input: BoxedOperator<'a>,
    remaining: usize,
    label: String,
    rows_out: u64,
    timer: OpTimer,
}

impl<'a> LimitOp<'a> {
    fn advance(&mut self) -> Result<Option<RowRef<'a>>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            Some(row) => {
                self.remaining -= 1;
                self.rows_out += 1;
                Ok(Some(row))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }
}

timed_next!(LimitOp);

impl<'a> Operator<'a> for LimitOp<'a> {
    fn record(&mut self, metrics: &mut ExecutionMetrics) {
        self.input.record(metrics);
        metrics.record(self.label.clone(), self.rows_out, 0, self.timer.elapsed());
    }
}

/// Hash join: materializes the right (build) side on first pull, then
/// streams the left (probe) side.  Output order is left-major.
///
/// The build side is *always* the right input (no smaller-side swap as in
/// the old batch executor): the planner emits left-deep trees whose left
/// input is the growing intermediate, so streaming the left unmaterialized
/// strictly reduces peak memory versus the batch model, which buffered
/// BOTH sides before choosing a build side.  Total key-hashing work is the
/// same either way (every row of both sides is hashed exactly once), and
/// pinning the probe side also pins the output order.
struct HashJoinOp<'a> {
    probe: BoxedOperator<'a>,
    build: BoxedOperator<'a>,
    built: bool,
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    /// Match lists are `Rc`-shared so expanding a probe row clones a
    /// pointer, not the index vector (hot keys can match thousands of
    /// build rows, once per probe row).
    table: HashMap<Vec<Value>, std::rc::Rc<[usize]>>,
    build_rows: Vec<RowRef<'a>>,
    /// The probe row currently being expanded, its matches, and the next
    /// match position.
    pending: Option<(RowRef<'a>, std::rc::Rc<[usize]>, usize)>,
    label: String,
    rows_out: u64,
    build_elapsed: Duration,
    /// Vectorized mode: build/probe through the batched canonical-hash
    /// kernels (`build_join_table` / `probe_join_table`), keyed by a `u64`
    /// hash with value-wise collision verification instead of a
    /// materialized `Vec<Value>` key per row.  Match lists and output order
    /// are identical to the row-path table by construction.
    vectorized: bool,
    htable: HashMap<u64, std::rc::Rc<[usize]>>,
    timer: OpTimer,
}

impl<'a> HashJoinOp<'a> {
    fn with_timer(mut self, timer: OpTimer) -> Self {
        self.timer = timer;
        self
    }

    fn new(
        probe: BoxedOperator<'a>,
        build: BoxedOperator<'a>,
        probe_keys: Vec<usize>,
        build_keys: Vec<usize>,
        label: String,
        vectorized: bool,
    ) -> Self {
        HashJoinOp {
            probe,
            build,
            built: false,
            probe_keys,
            build_keys,
            table: HashMap::new(),
            build_rows: Vec::new(),
            pending: None,
            label,
            rows_out: 0,
            build_elapsed: Duration::ZERO,
            vectorized,
            htable: HashMap::new(),
            timer: OpTimer::default(),
        }
    }

    fn advance(&mut self) -> Result<Option<RowRef<'a>>> {
        if !self.built {
            self.built = true;
            // Blocking phase: drain the build side into the hash table.
            let start = clock::now();
            if self.vectorized {
                // Batched: drain first, then one hashing pass over the
                // drained rows (NULL / NaN keys land in no bucket).
                while let Some(row) = self.build.next()? {
                    self.build_rows.push(row);
                }
                self.htable = build_join_table(&self.build_rows, &self.build_keys);
            } else {
                let mut building: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                while let Some(row) = self.build.next()? {
                    // NULL / NaN keys never join
                    if let Some(key) = join_key(&row, &self.build_keys) {
                        building.entry(key).or_default().push(self.build_rows.len());
                    }
                    self.build_rows.push(row);
                }
                self.table = building.into_iter().map(|(k, v)| (k, v.into())).collect();
            }
            self.build_elapsed = start.elapsed();
        }
        loop {
            if let Some((probe_row, matches, pos)) = &mut self.pending {
                if *pos < matches.len() {
                    let build_row = &self.build_rows[matches[*pos]];
                    *pos += 1;
                    self.rows_out += 1;
                    return Ok(Some(probe_row.concat(build_row)));
                }
                self.pending = None;
            }
            match self.probe.next()? {
                Some(probe_row) => {
                    let matches = if self.vectorized {
                        probe_join_table(
                            &self.htable,
                            &self.build_rows,
                            &probe_row,
                            &self.probe_keys,
                            &self.build_keys,
                        )
                    } else {
                        join_key(&probe_row, &self.probe_keys)
                            .and_then(|key| self.table.get(&key).map(std::rc::Rc::clone))
                    };
                    if let Some(matches) = matches {
                        self.pending = Some((probe_row, matches, 0));
                    }
                }
                None => return Ok(None),
            }
        }
    }
}

timed_next!(HashJoinOp);

impl<'a> Operator<'a> for HashJoinOp<'a> {
    fn record(&mut self, metrics: &mut ExecutionMetrics) {
        self.probe.record(metrics);
        self.build.record(metrics);
        metrics.record(
            self.label.clone(),
            self.rows_out,
            0,
            self.timer.or_fallback(self.build_elapsed),
        );
    }
}

/// Cross product (a join without equality keys, labelled
/// `NestedLoopJoin`): buffers the right side on first pull, streams the
/// left, so its output is left-major like [`HashJoinOp`]'s.
struct CrossProductOp<'a> {
    left: BoxedOperator<'a>,
    right: BoxedOperator<'a>,
    built: bool,
    right_rows: Vec<RowRef<'a>>,
    /// Current left row and the next right position.
    pending: Option<(RowRef<'a>, usize)>,
    label: String,
    rows_out: u64,
    build_elapsed: Duration,
    timer: OpTimer,
}

impl<'a> CrossProductOp<'a> {
    fn with_timer(mut self, timer: OpTimer) -> Self {
        self.timer = timer;
        self
    }

    fn new(left: BoxedOperator<'a>, right: BoxedOperator<'a>, label: String) -> Self {
        CrossProductOp {
            left,
            right,
            built: false,
            right_rows: Vec::new(),
            pending: None,
            label,
            rows_out: 0,
            build_elapsed: Duration::ZERO,
            timer: OpTimer::default(),
        }
    }

    fn advance(&mut self) -> Result<Option<RowRef<'a>>> {
        if !self.built {
            self.built = true;
            let start = clock::now();
            while let Some(row) = self.right.next()? {
                self.right_rows.push(row);
            }
            self.build_elapsed = start.elapsed();
        }
        loop {
            if let Some((left_row, pos)) = &mut self.pending {
                if *pos < self.right_rows.len() {
                    let out = left_row.concat(&self.right_rows[*pos]);
                    *pos += 1;
                    self.rows_out += 1;
                    return Ok(Some(out));
                }
                self.pending = None;
            }
            match self.left.next()? {
                Some(left_row) => self.pending = Some((left_row, 0)),
                None => return Ok(None),
            }
        }
    }
}

timed_next!(CrossProductOp);

impl<'a> Operator<'a> for CrossProductOp<'a> {
    fn record(&mut self, metrics: &mut ExecutionMetrics) {
        self.left.record(metrics);
        self.right.record(metrics);
        metrics.record(
            self.label.clone(),
            self.rows_out,
            0,
            self.timer.or_fallback(self.build_elapsed),
        );
    }
}

/// Rows between deadline re-checks inside blocking (drain-everything)
/// operators.  The scan already charges the quota per tuple, but a blocking
/// fold over a huge buffered input can otherwise overrun a deadline by a
/// whole pass between charge points.
const BLOCKING_CHECK_ROWS: usize = 4096;

/// Drain a blocking operator's input to a buffer, re-checking the session
/// deadline every [`BLOCKING_CHECK_ROWS`] buffered rows.
fn drain_checked<'a>(
    input: &mut BoxedOperator<'a>,
    quota: Option<&QuotaTracker>,
) -> Result<Vec<RowRef<'a>>> {
    let mut rows = Vec::new();
    while let Some(row) = input.next()? {
        rows.push(row);
        if rows.len() % BLOCKING_CHECK_ROWS == 0 {
            if let Some(q) = quota {
                q.checkpoint()?;
            }
        }
    }
    Ok(rows)
}

/// Sort: drains its input on first pull.  Under a limit hint it keeps a
/// bounded top-k heap instead of sorting the whole input.
struct SortOp<'a> {
    input: BoxedOperator<'a>,
    started: bool,
    keys: &'a [(usize, bool)],
    limit: Option<usize>,
    /// Session quota: re-checked periodically while draining and once after
    /// the blocking sort, so a deadline trips even when the scan's per-row
    /// charges all happened long before the sort ran.
    quota: Option<&'a QuotaTracker>,
    out: std::vec::IntoIter<RowRef<'a>>,
    rows_out: u64,
    elapsed: Duration,
    timer: OpTimer,
}

impl<'a> SortOp<'a> {
    fn advance(&mut self) -> Result<Option<RowRef<'a>>> {
        if !self.started {
            self.started = true;
            let rows = drain_checked(&mut self.input, self.quota)?;
            let start = clock::now();
            let keys = self.keys;
            let cmp = |a: &RowRef<'a>, b: &RowRef<'a>| sort_cmp(a, b, keys);
            let rows = match self.limit {
                // Sort under a limit: bounded top-k heap instead of a full
                // O(n log n) sort of the whole input.
                Some(k) if k < rows.len() => top_k_by(rows, k, cmp),
                _ => {
                    let mut rows = rows;
                    rows.sort_by(cmp);
                    rows
                }
            };
            if let Some(q) = self.quota {
                q.checkpoint()?;
            }
            self.elapsed = start.elapsed();
            self.out = rows.into_iter();
        }
        match self.out.next() {
            Some(row) => {
                self.rows_out += 1;
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }
}

timed_next!(SortOp);

impl<'a> Operator<'a> for SortOp<'a> {
    fn record(&mut self, metrics: &mut ExecutionMetrics) {
        self.input.record(metrics);
        metrics.record(
            "Sort",
            self.rows_out,
            0,
            self.timer.or_fallback(self.elapsed),
        );
    }
}

/// Group-and-aggregate: drains its input on first pull, then streams the
/// result groups in first-seen order.
struct AggregateOp<'a> {
    input: BoxedOperator<'a>,
    started: bool,
    group_by: &'a [BoundExpr],
    aggregates: &'a [BoundAggregate],
    /// Session quota: re-checked periodically inside the drain and the
    /// aggregation fold (see [`BLOCKING_CHECK_ROWS`]).
    quota: Option<&'a QuotaTracker>,
    out: std::vec::IntoIter<Row>,
    rows_out: u64,
    elapsed: Duration,
    timer: OpTimer,
}

impl<'a> AggregateOp<'a> {
    fn advance(&mut self) -> Result<Option<RowRef<'a>>> {
        if !self.started {
            self.started = true;
            let rows = drain_checked(&mut self.input, self.quota)?;
            let start = clock::now();
            let grouped = aggregate_with_quota(&rows, self.group_by, self.aggregates, self.quota)?;
            self.elapsed = start.elapsed();
            self.out = grouped.into_iter();
        }
        match self.out.next() {
            Some(row) => {
                self.rows_out += 1;
                Ok(Some(RowRef::owned(row)))
            }
            None => Ok(None),
        }
    }
}

timed_next!(AggregateOp);

impl<'a> Operator<'a> for AggregateOp<'a> {
    fn record(&mut self, metrics: &mut ExecutionMetrics) {
        self.input.record(metrics);
        metrics.record(
            "HashAggregate",
            self.rows_out,
            0,
            self.timer.or_fallback(self.elapsed),
        );
    }
}

/// Compare two rows on the sort keys `(column index, ascending)`.
fn sort_cmp(a: &RowRef<'_>, b: &RowRef<'_>, keys: &[(usize, bool)]) -> Ordering {
    for (idx, asc) in keys {
        let av = a.get(*idx).expect("sort key within row arity");
        let bv = b.get(*idx).expect("sort key within row arity");
        let ord = av.total_cmp(bv);
        let ord = if *asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// The `k` smallest items under `cmp`, in ascending order, via a bounded
/// max-heap: the root is the worst row currently kept, and better rows
/// replace it.  O(n log k) comparisons and O(k) memory beyond the input.
///
/// *Stable*: ties under `cmp` are broken by input position, so the output is
/// exactly `sort_by(cmp)` (a stable sort) followed by `truncate(k)` — the
/// answer must not depend on which execution strategy the limit hint picked.
fn top_k_by<T>(items: Vec<T>, k: usize, mut cmp: impl FnMut(&T, &T) -> Ordering) -> Vec<T> {
    if k == 0 {
        return Vec::new();
    }
    // (input position, item); the position makes the order strict, which is
    // what stability means for a selection algorithm.
    let mut full = |a: &(usize, T), b: &(usize, T)| cmp(&a.1, &b.1).then(a.0.cmp(&b.0));
    let mut heap: Vec<(usize, T)> = Vec::with_capacity(k);
    for entry in items.into_iter().enumerate() {
        if heap.len() < k {
            heap.push(entry);
            // sift up
            let mut i = heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if full(&heap[i], &heap[parent]) == Ordering::Greater {
                    heap.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        } else if full(&entry, &heap[0]) == Ordering::Less {
            heap[0] = entry;
            // sift down
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut largest = i;
                if l < heap.len() && full(&heap[l], &heap[largest]) == Ordering::Greater {
                    largest = l;
                }
                if r < heap.len() && full(&heap[r], &heap[largest]) == Ordering::Greater {
                    largest = r;
                }
                if largest == i {
                    break;
                }
                heap.swap(i, largest);
                i = largest;
            }
        }
    }
    heap.sort_by(|a, b| full(a, b));
    heap.into_iter().map(|(_, item)| item).collect()
}

/// Group rows by `group_by` expressions and evaluate `aggregates` per group.
/// Output rows are group-key values followed by aggregate results.
///
/// Generic over the row representation so the bounded executor can aggregate
/// its pipelined context rows and tests can pass plain `Vec<Value>` rows.
pub fn aggregate<R: beas_common::ValueRow>(
    rows: &[R],
    group_by: &[BoundExpr],
    aggregates: &[BoundAggregate],
) -> Result<Vec<Row>> {
    aggregate_with_quota(rows, group_by, aggregates, None)
}

/// [`aggregate`] with a session quota whose deadline is re-checked every
/// `BLOCKING_CHECK_ROWS` rows of the fold — the blocking-operator arm of
/// cooperative cancellation.  Groups come out in first-seen order; a global
/// aggregate over empty input still produces one row.
pub fn aggregate_with_quota<R: beas_common::ValueRow>(
    rows: &[R],
    group_by: &[BoundExpr],
    aggregates: &[BoundAggregate],
    quota: Option<&QuotaTracker>,
) -> Result<Vec<Row>> {
    let new_accs = || -> Vec<Accumulator> {
        aggregates
            .iter()
            .map(|a| Accumulator::new(a.func, a.distinct))
            .collect()
    };
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
    for (n, row) in rows.iter().enumerate() {
        if n % BLOCKING_CHECK_ROWS == BLOCKING_CHECK_ROWS - 1 {
            if let Some(q) = quota {
                q.checkpoint()?;
            }
        }
        let key: Vec<Value> = group_by
            .iter()
            .map(|e| evaluate(e, row))
            .collect::<Result<_>>()?;
        if !groups.contains_key(&key) {
            order.push(key.clone());
            groups.insert(key.clone(), new_accs());
        }
        let accs = groups.get_mut(&key).expect("group inserted above");
        for (acc, agg) in accs.iter_mut().zip(aggregates) {
            let v = match &agg.arg {
                Some(a) => evaluate(a, row)?,
                // COUNT(*): count every row, NULL-free marker value
                None => Value::Int(1),
            };
            acc.update(&v)?;
        }
    }
    if group_by.is_empty() && order.is_empty() {
        return Ok(vec![new_accs().iter().map(Accumulator::finish).collect()]);
    }
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let accs = groups
            .remove(&key)
            .ok_or_else(|| BeasError::execution("group disappeared during aggregation"))?;
        let mut row = key;
        row.extend(accs.iter().map(Accumulator::finish));
        out.push(row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_common::Date;
    use beas_sql::AggregateFunction;
    use proptest::test_runner::Prng;
    use proptest::{prop_assert, prop_assert_eq};

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::str("east"), Value::Int(10)],
            vec![Value::str("east"), Value::Int(20)],
            vec![Value::str("west"), Value::Int(5)],
        ]
    }

    fn refs(rows: &[Row]) -> Vec<RowRef<'_>> {
        rows.iter().map(|r| RowRef::borrowed(r)).collect()
    }

    /// A test operator streaming pre-built rows (metrics-free input).
    struct StaticOp<'a> {
        iter: std::vec::IntoIter<RowRef<'a>>,
    }

    impl<'a> StaticOp<'a> {
        fn boxed(rows: Vec<RowRef<'a>>) -> BoxedOperator<'a> {
            Box::new(StaticOp {
                iter: rows.into_iter(),
            })
        }
    }

    impl<'a> RowStream<'a> for StaticOp<'a> {
        fn next(&mut self) -> Result<Option<RowRef<'a>>> {
            Ok(self.iter.next())
        }
    }

    impl<'a> Operator<'a> for StaticOp<'a> {
        fn record(&mut self, _metrics: &mut ExecutionMetrics) {}
    }

    /// Drive a joined stream, pulling at most `limit` rows when given.
    fn drain<'a>(mut op: impl RowStream<'a>, limit: Option<usize>) -> Vec<RowRef<'a>> {
        let cap = limit.unwrap_or(usize::MAX);
        let mut out = Vec::new();
        while out.len() < cap {
            match op.next().unwrap() {
                Some(r) => out.push(r),
                None => break,
            }
        }
        out
    }

    fn hash_join<'a>(
        left: &[RowRef<'a>],
        right: &[RowRef<'a>],
        keys: &[(usize, usize)],
        limit: Option<usize>,
    ) -> Vec<RowRef<'a>> {
        let build = |vectorized: bool| {
            HashJoinOp::new(
                StaticOp::boxed(left.to_vec()),
                StaticOp::boxed(right.to_vec()),
                keys.iter().map(|(l, _)| *l).collect(),
                keys.iter().map(|(_, r)| *r).collect(),
                "HashJoin".into(),
                vectorized,
            )
        };
        // Every join property in this module holds for both probe modes,
        // and the two must agree row for row.
        let rows = drain(build(false), limit);
        let batched = drain(build(true), limit);
        assert_eq!(
            format!("{rows:?}"),
            format!("{batched:?}"),
            "vectorized hash join must match the row path"
        );
        rows
    }

    fn cross_product<'a>(
        left: &[RowRef<'a>],
        right: &[RowRef<'a>],
        limit: Option<usize>,
    ) -> Vec<RowRef<'a>> {
        let op = CrossProductOp::new(
            StaticOp::boxed(left.to_vec()),
            StaticOp::boxed(right.to_vec()),
            "NestedLoopJoin".into(),
        );
        drain(op, limit)
    }

    /// The equi-join by definition: every (left, right) pair, left-major,
    /// whose canonical keys exist and are equal.
    fn reference_join(
        left: &[RowRef<'_>],
        right: &[RowRef<'_>],
        keys: &[(usize, usize)],
    ) -> Vec<Row> {
        let left_keys: Vec<usize> = keys.iter().map(|(l, _)| *l).collect();
        let right_keys: Vec<usize> = keys.iter().map(|(_, r)| *r).collect();
        let mut out = Vec::new();
        for l in left {
            let Some(lk) = join_key(l, &left_keys) else {
                continue;
            };
            for r in right {
                if join_key(r, &right_keys).as_ref() == Some(&lk) {
                    out.push(l.concat(r).to_row());
                }
            }
        }
        out
    }

    fn to_rows(rows: &[RowRef<'_>]) -> Vec<Row> {
        rows.iter().map(|r| r.to_row()).collect()
    }

    #[test]
    fn hash_join_basic() {
        let left = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Null, Value::str("n")],
        ];
        let right = vec![
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(1), Value::str("y")],
            vec![Value::Int(3), Value::str("z")],
            vec![Value::Null, Value::str("w")],
        ];
        let out = hash_join(&refs(&left), &refs(&right), &[(0, 0)], None);
        assert_eq!(out.len(), 2);
        for row in &out {
            assert_eq!(row.len(), 4);
            assert_eq!(row.get(0), Some(&Value::Int(1)));
        }
        // same cardinality with the sides swapped
        let out2 = hash_join(&refs(&right), &refs(&left), &[(0, 0)], None);
        assert_eq!(out2.len(), 2);
        assert_eq!(out2[0].len(), 4);
        // limit stops pulling after the first output row
        let out3 = hash_join(&refs(&left), &refs(&right), &[(0, 0)], Some(1));
        assert_eq!(out3.len(), 1);
    }

    #[test]
    fn hash_join_matches_reference_and_cross_product_pairs_all() {
        let left = vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(2)],
        ];
        let right = vec![vec![Value::Int(2)], vec![Value::Int(3)]];
        let h = hash_join(&refs(&left), &refs(&right), &[(0, 0)], None);
        assert_eq!(h.len(), 2);
        assert_eq!(
            to_rows(&h),
            reference_join(&refs(&left), &refs(&right), &[(0, 0)])
        );
        let cross = cross_product(&refs(&left), &refs(&right), None);
        assert_eq!(cross.len(), 6);
        let cross_cut = cross_product(&refs(&left), &refs(&right), Some(4));
        assert_eq!(cross_cut.len(), 4);
    }

    #[test]
    fn hash_join_output_order_is_left_major() {
        // The hash join streams the left side and buffers the right, so its
        // output order is the reference's — not just the multiset.
        let left = vec![
            vec![Value::Int(2), Value::str("l2")],
            vec![Value::Int(1), Value::str("l1")],
            vec![Value::Int(2), Value::str("l2b")],
        ];
        let right = vec![
            vec![Value::Int(1), Value::str("r1")],
            vec![Value::Int(2), Value::str("r2")],
            vec![Value::Int(2), Value::str("r2b")],
        ];
        let h = to_rows(&hash_join(&refs(&left), &refs(&right), &[(0, 0)], None));
        assert_eq!(h, reference_join(&refs(&left), &refs(&right), &[(0, 0)]));
        // left-major: all l2 outputs precede l1's
        assert_eq!(h[0][1], Value::str("l2"));
        assert_eq!(h[2][1], Value::str("l1"));
    }

    #[test]
    fn hash_join_coerces_dates_and_numerics() {
        // The historical divergence: '2016-07-04' (Str) vs DATE keys joined
        // under SQL equality (sql_eq coerces) but not under hash join
        // (structural map-key equality).  Keys now use the canonical form.
        let left = vec![
            vec![Value::str("2016-07-04")],
            vec![Value::Float(1.0)],
            vec![Value::Float(f64::NAN)],
        ];
        let right = vec![
            vec![Value::Date(Date::new(2016, 7, 4).unwrap())],
            vec![Value::Int(1)],
            vec![Value::Float(f64::NAN)],
        ];
        let h = hash_join(&refs(&left), &refs(&right), &[(0, 0)], None);
        // str-date joins date, float 1.0 joins int 1, NaN joins nothing
        assert_eq!(h.len(), 2);
        assert_eq!(
            h[0].get(1),
            Some(&Value::Date(Date::new(2016, 7, 4).unwrap()))
        );
        assert_eq!(h[1].get(1), Some(&Value::Int(1)));
    }

    /// Deterministic mixed-type join input for the equivalence proptest.
    fn mixed_key_rows(rng: &mut Prng, n: usize) -> Vec<Row> {
        (0..n)
            .map(|_| {
                let k = (rng.next_u64() % 5) as i64;
                let key = match rng.next_u64() % 6 {
                    0 => Value::Int(k),
                    1 => Value::Float(k as f64),
                    2 => Value::Float(k as f64 + 0.5),
                    3 => Value::Date(Date::new(2016, 7, 1 + k as u8).unwrap()),
                    4 => Value::str(format!("2016-07-0{}", 1 + k)),
                    _ => Value::Null,
                };
                let payload = Value::Int((rng.next_u64() % 100) as i64);
                vec![key, payload]
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 64, ..Default::default() })]

        /// Hash join ≡ the reference join on mixed Int/Float/Date (and
        /// date-string, NULL) keys: the same rows *in the same order* for
        /// every input.
        #[test]
        fn hash_join_equals_reference_on_mixed_keys(seed in 0u64..1_000_000, ln in 0usize..24, rn in 0usize..24) {
            let mut rng = Prng::new(seed);
            let left = mixed_key_rows(&mut rng, ln);
            let right = mixed_key_rows(&mut rng, rn);
            let h = to_rows(&hash_join(&refs(&left), &refs(&right), &[(0, 0)], None));
            let n = reference_join(&refs(&left), &refs(&right), &[(0, 0)]);
            prop_assert_eq!(h.len(), n.len());
            for (a, b) in h.iter().zip(n.iter()) {
                // compare through total_cmp: rows may carry NaN, which is
                // never == itself under Value's PartialEq
                prop_assert!(a.iter().zip(b.iter()).all(|(x, y)| x.total_cmp(y) == Ordering::Equal));
            }
        }
    }

    #[test]
    fn top_k_returns_smallest_sorted() {
        let items = vec![5, 1, 9, 3, 7, 2, 8];
        let out = top_k_by(items.clone(), 3, |a, b| a.cmp(b));
        assert_eq!(out, vec![1, 2, 3]);
        // k >= n degrades to a full sort
        let all = top_k_by(items.clone(), 10, |a, b| a.cmp(b));
        assert_eq!(all, vec![1, 2, 3, 5, 7, 8, 9]);
        assert!(top_k_by(items, 0, |a, b| a.cmp(b)).is_empty());
        // descending comparator keeps the largest
        let desc = top_k_by(vec![5, 1, 9, 3], 2, |a, b| b.cmp(a));
        assert_eq!(desc, vec![9, 5]);
    }

    #[test]
    fn top_k_is_stable_like_sort_then_truncate() {
        // ties under the comparator must come out in input order, exactly as
        // a stable sort + truncate would produce — the limit-hint execution
        // strategy must not change the answer
        let items: Vec<(i64, &str)> = vec![
            (5, "b"),
            (1, "a1"),
            (1, "a2"),
            (0, "z1"),
            (1, "a3"),
            (0, "z2"),
        ];
        for k in 0..=items.len() {
            let via_heap = top_k_by(items.clone(), k, |a, b| a.0.cmp(&b.0));
            let mut via_sort = items.clone();
            via_sort.sort_by_key(|a| a.0);
            via_sort.truncate(k);
            assert_eq!(via_heap, via_sort, "k = {k}");
        }
    }

    #[test]
    fn aggregate_grouped() {
        let group = vec![BoundExpr::Column(0)];
        let aggs = vec![
            BoundAggregate {
                func: AggregateFunction::Count,
                arg: None,
                distinct: false,
                display: "COUNT(*)".into(),
                output_type: beas_common::DataType::Int,
            },
            BoundAggregate {
                func: AggregateFunction::Sum,
                arg: Some(BoundExpr::Column(1)),
                distinct: false,
                display: "SUM(#1)".into(),
                output_type: beas_common::DataType::Int,
            },
        ];
        let out = aggregate(&rows(), &group, &aggs).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0],
            vec![Value::str("east"), Value::Int(2), Value::Int(30)]
        );
        assert_eq!(
            out[1],
            vec![Value::str("west"), Value::Int(1), Value::Int(5)]
        );
        // identical through the pipelined representation
        let base = rows();
        let out2 = aggregate(&refs(&base), &group, &aggs).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let aggs = vec![BoundAggregate {
            func: AggregateFunction::Count,
            arg: None,
            distinct: false,
            display: "COUNT(*)".into(),
            output_type: beas_common::DataType::Int,
        }];
        let out = aggregate::<Row>(&[], &[], &aggs).unwrap();
        assert_eq!(out, vec![vec![Value::Int(0)]]);
        // grouped aggregate on empty input produces no rows
        let out2 = aggregate::<Row>(&[], &[BoundExpr::Column(0)], &aggs).unwrap();
        assert!(out2.is_empty());
    }

    /// A database with one `n`-row table of mixed-type values.
    fn int_table_db(n: i64) -> Database {
        use beas_common::{ColumnDef, DataType, TableSchema};
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("grp", DataType::Str),
                    ColumnDef::new("v", DataType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        for i in 0..n {
            db.insert(
                "t",
                vec![
                    Value::Int(i),
                    Value::str(format!("g{}", (i * 7919) % 5)),
                    Value::Int((i * 31) % 97),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn integer_sum_overflow_is_an_error() {
        // Checked i64 addition: the left-to-right fold reaches MAX + 1 and
        // must fail, not wrap or saturate.
        use beas_common::{ColumnDef, DataType, TableSchema};
        let mut db = Database::new();
        db.create_table(TableSchema::new("t", vec![ColumnDef::new("v", DataType::Int)]).unwrap())
            .unwrap();
        for v in [i64::MAX, 0, 1, -2] {
            db.insert("t", vec![Value::Int(v)]).unwrap();
        }
        let err = crate::engine::Engine::default()
            .run(&db, "select sum(v) from t")
            .expect_err("the sum overflows");
        assert_eq!(err.kind(), "execution");
        assert!(err.to_string().contains("integer overflow"), "{err}");
    }

    #[test]
    fn session_quota_trips_the_scan() {
        use beas_common::ResourceQuota;
        let db = int_table_db(200);
        let sql = "select id from t where v >= 0";
        for exec in ExecProfile::all() {
            let tracker = ResourceQuota::unlimited().with_max_tuples(50).tracker();
            let err = crate::engine::Engine::default()
                .with_exec_profile(exec)
                .run_with_quota(&db, sql, Some(&tracker))
                .expect_err("a 50-tuple quota cannot survive a 200-row scan");
            assert_eq!(err.kind(), "quota_exceeded");
            assert!(tracker.is_tripped());
            // the charge that tripped is the last one: the scan stops at
            // the budget, never a full table
            assert_eq!(tracker.tuples_used(), 51, "{exec}");
        }
        // a sufficient quota answers normally and accounts for every access
        let tracker = ResourceQuota::unlimited().with_max_tuples(10_000).tracker();
        let res = crate::engine::Engine::default()
            .run_with_quota(&db, sql, Some(&tracker))
            .unwrap();
        assert_eq!(res.rows.len(), 200);
        assert_eq!(tracker.tuples_used(), 200);
        assert!(!tracker.is_tripped());
    }

    #[test]
    fn limit_under_filter_stops_the_scan() {
        use beas_common::{ColumnDef, DataType, TableSchema};
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("tag", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        for i in 0..1000i64 {
            let tag = if i % 2 == 0 { "even" } else { "odd" };
            db.insert("t", vec![Value::Int(i), Value::str(tag)])
                .unwrap();
        }
        // filter passes every other row; LIMIT 5 needs ~10 scanned rows
        let engine = crate::engine::Engine::default();
        let result = engine
            .run(&db, "select k from t where tag = 'even' limit 5")
            .unwrap();
        assert_eq!(result.rows.len(), 5);
        let scan = result
            .metrics
            .operators
            .iter()
            .find(|o| o.operator.starts_with("SeqScan"))
            .expect("scan metrics present");
        assert!(
            scan.tuples_accessed < 50,
            "scan read {} rows; the pipeline failed to stop early",
            scan.tuples_accessed
        );
    }
}
